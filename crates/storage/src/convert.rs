//! Encoding becomes compression (paper §3.4.3).
//!
//! Three conversions exploit the dictionary/frame headers to re-shape a
//! column in time proportional to its *domain* rather than its rows:
//!
//! * **Heap sorting through the encoding dictionary**: when a string
//!   column's token stream is dictionary-encoded, the distinct tokens live
//!   in the entry table. Sorting the (few) distinct strings, rebuilding the
//!   heap in sorted order and writing the new tokens back into the entry
//!   table leaves every row untouched and yields comparable tokens.
//! * **Dictionary encoding → dictionary (array) compression**: the entry
//!   table becomes the compression dictionary and the packed indexes
//!   become the main data — valuable for scalar dimensions such as dates
//!   with few values but expensive calculations.
//! * **Frame-of-reference → sorted scalar dictionary**: the frame and bit
//!   width define the envelope `[frame, frame + 2^bits)`; a sorted
//!   dictionary is generated from it (possibly containing values not in
//!   the column) and the packed offsets become the indexes.

use crate::column::{Column, Compression};
use crate::heap::StringHeap;
use tde_encodings::header::{self, HeaderView};
use tde_encodings::metadata::Knowledge;
use tde_encodings::{frame, manipulate, Algorithm, EncodedStream};
use tde_types::sentinel::NULL_TOKEN;
use tde_types::{Collation, Width};

/// Sort a string heap through the encoding dictionary of its token stream
/// (paper §3.4.3). `stream` must be dictionary-encoded and `heap` distinct
/// (accelerated). Returns the new sorted heap; the stream's entry table is
/// remapped in place and its packed row data is untouched.
pub fn sort_heap_via_dictionary(
    stream: &mut EncodedStream,
    heap: &StringHeap,
    collation: Collation,
) -> StringHeap {
    let entries = stream
        .dict_entries()
        .expect("token stream must be dictionary-encoded");
    // Collect the distinct strings (NULL token stays NULL).
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        let (ta, tb) = (entries[a] as u64, entries[b] as u64);
        match (ta == NULL_TOKEN, tb == NULL_TOKEN) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Less, // NULL sorts first
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => collation.compare(heap.get_raw(ta), heap.get_raw(tb)),
        }
    });
    // Build the new heap in sorted order and record each entry's new token.
    tde_obs::emit(|| tde_obs::Event::Conversion {
        column: String::new(),
        route: "heap-sort-via-dictionary",
        detail: format!(
            "{} dictionary entr(ies) sorted; row data untouched",
            entries.len()
        ),
    });
    let mut sorted_heap = StringHeap::new();
    let mut new_entries = vec![0i64; entries.len()];
    for &i in &order {
        let old = entries[i] as u64;
        new_entries[i] = if old == NULL_TOKEN {
            NULL_TOKEN as i64
        } else {
            sorted_heap.append(heap.get_raw(old)) as i64
        };
    }
    manipulate::remap_dict_entries(stream, &new_entries);
    sorted_heap
}

/// Convert a dictionary-*encoded* scalar column into a dictionary-
/// *compressed* one (paper §3.4.3): the entry table becomes the
/// compression dictionary (sorted, so indexes are order-preserving) and
/// the packed indexes become the main data. Cost: O(2^bits) header work
/// plus one header copy; the packed body is reused byte-for-byte.
pub fn dict_encoding_to_compression(col: &mut Column) {
    assert!(
        matches!(col.compression, Compression::None),
        "column is already compressed"
    );
    let h = col.data.header();
    assert_eq!(
        h.algorithm,
        Algorithm::Dictionary,
        "column data is not dictionary-encoded"
    );
    let entries = col.data.dict_entries().expect("dictionary entries");

    // Sort the dictionary and remap the entry table to ranks, so the index
    // stream decodes directly to sorted-dictionary positions.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| entries[i]);
    let mut dictionary = Vec::with_capacity(entries.len());
    let mut rank_of = vec![0i64; entries.len()];
    for (rank, &i) in order.iter().enumerate() {
        dictionary.push(entries[i]);
        rank_of[i] = rank as i64;
    }
    manipulate::remap_dict_entries(&mut col.data, &rank_of);
    // The stream now decodes to ranks — exactly the index stream we want.
    // Its element width can narrow to the rank range.
    manipulate::narrow(&mut col.data);

    tde_obs::emit(|| tde_obs::Event::Conversion {
        column: col.name.clone(),
        route: "dict-encoding->array-compression",
        detail: format!(
            "entry table of {} value(s) became the sorted dictionary; packed body reused",
            dictionary.len()
        ),
    });
    col.compression = Compression::Array {
        dictionary,
        sorted: true,
    };
    col.metadata.cardinality = Some(entries.len() as u64);
    col.metadata.width = col.data.width();
}

/// Convert a frame-of-reference column into a dictionary-compressed one
/// with a *sorted* scalar dictionary generated from the header envelope
/// (paper §3.4.3). The dictionary may contain values that are not actually
/// present in the column; the packed offsets become the indexes verbatim.
pub fn for_encoding_to_compression(col: &mut Column) {
    assert!(
        matches!(col.compression, Compression::None),
        "column is already compressed"
    );
    let h = col.data.header();
    assert_eq!(
        h.algorithm,
        Algorithm::FrameOfReference,
        "column data is not FoR-encoded"
    );
    assert!(
        h.bits <= tde_encodings::DICT_MAX_BITS,
        "envelope too wide for a dictionary"
    );
    let base = frame::frame_value(col.data.as_bytes());
    let dictionary: Vec<i64> = (0..(1i64 << h.bits)).map(|i| base + i).collect();

    // Rewrite the header so the same packed body decodes to offsets
    // (frame 0) — those offsets are the dictionary indexes.
    let mut buf = col.data.as_bytes().to_vec();
    header::put_i64(&mut buf, frame::OFF_FRAME, 0);
    buf[header::OFF_FLAGS] &= !header::FLAG_SIGNED; // indexes are unsigned
    let mut stream = EncodedStream::from_buf(buf);
    let target = Width::for_unsigned_max((dictionary.len() - 1) as u64);
    if target < stream.width() {
        manipulate::set_width(&mut stream, target);
    }

    tde_obs::emit(|| tde_obs::Event::Conversion {
        column: col.name.clone(),
        route: "for-encoding->array-compression",
        detail: format!(
            "envelope [{base}, {base}+{}) generated a sorted dictionary of {} value(s)",
            dictionary.len(),
            dictionary.len()
        ),
    });
    col.data = stream;
    col.compression = Compression::Array {
        dictionary,
        sorted: true,
    };
    col.metadata.width = col.data.width();
}

/// Run-length decomposition route to dictionary compression (paper
/// §3.4.3 last paragraph): decompose an RLE column into value and count
/// streams, dictionary-compress the (few) run values, and rebuild an RLE
/// token stream with the original counts. The result is a scalar
/// dictionary-compressed column whose token stream is run-length encoded.
pub fn rle_to_dict_compression(col: &mut Column) {
    assert!(
        matches!(col.compression, Compression::None),
        "column is already compressed"
    );
    assert_eq!(
        col.data.algorithm(),
        Algorithm::RunLength,
        "column data is not RLE"
    );
    let (values, counts) = manipulate::rle_decompose(&col.data);

    let mut dictionary: Vec<i64> = values.clone();
    dictionary.sort_unstable();
    dictionary.dedup();
    let index_of = |v: i64| dictionary.binary_search(&v).expect("value in dictionary") as i64;
    let tokens: Vec<i64> = values.iter().map(|&v| index_of(v)).collect();

    tde_obs::emit(|| tde_obs::Event::Conversion {
        column: col.name.clone(),
        route: "rle->dict-compression",
        detail: format!(
            "{} run(s) decomposed; {} distinct value(s) dictionary-compressed",
            values.len(),
            dictionary.len()
        ),
    });
    col.data = manipulate::rle_rebuild(&tokens, &counts, false);
    col.metadata.cardinality = Some(dictionary.len() as u64);
    col.metadata.width = col.data.width();
    col.compression = Compression::Array {
        dictionary,
        sorted: true,
    };
}

/// Heavyweight AlterColumn-style conversion (paper §3.4.3 last
/// paragraph): re-encode a scalar column as a dictionary regardless of its
/// current encoding, then promote to dictionary compression. O(rows) — the
/// cheap header routes above are preferred when they apply. Returns false
/// (column untouched) when the domain exceeds the dictionary limit.
pub fn reencode_as_dictionary(col: &mut Column) -> bool {
    use std::collections::HashSet;
    assert!(
        matches!(col.compression, Compression::None),
        "column is already compressed"
    );
    // Cheap route for RLE columns: decompose runs instead of rows.
    if col.data.algorithm() == Algorithm::RunLength {
        let (values, _) = manipulate::rle_decompose(&col.data);
        let distinct: HashSet<i64> = values.iter().copied().collect();
        if distinct.len() > (1 << tde_encodings::DICT_MAX_BITS) {
            return false;
        }
        rle_to_dict_compression(col);
        return true;
    }
    let data = col.data.decode_all();
    let distinct: HashSet<i64> = data.iter().copied().collect();
    if distinct.is_empty() || distinct.len() > (1 << tde_encodings::DICT_MAX_BITS) {
        return false;
    }
    let bits = tde_encodings::bitpack::bits_for_max(distinct.len() as u64 - 1).max(1);
    let mut stream = EncodedStream::new_dict(Width::W8, true, bits);
    for chunk in data.chunks(tde_encodings::BLOCK_SIZE) {
        stream
            .append_block(chunk)
            .expect("sized dictionary accepts the domain");
    }
    col.data = stream;
    dict_encoding_to_compression(col);
    true
}

/// The forced O(rows) route: decode every row and re-encode as a
/// dictionary, ignoring the run-decomposition shortcut. Exists so the §8
/// rewrite-cost ablation can compare the two routes; production callers
/// should use [`reencode_as_dictionary`].
pub fn reencode_as_dictionary_full(col: &mut Column) -> bool {
    use std::collections::HashSet;
    assert!(
        matches!(col.compression, Compression::None),
        "column is already compressed"
    );
    let data = col.data.decode_all();
    let distinct: HashSet<i64> = data.iter().copied().collect();
    if distinct.is_empty() || distinct.len() > (1 << tde_encodings::DICT_MAX_BITS) {
        return false;
    }
    let bits = tde_encodings::bitpack::bits_for_max(distinct.len() as u64 - 1).max(1);
    let mut stream = EncodedStream::new_dict(Width::W8, true, bits);
    for chunk in data.chunks(tde_encodings::BLOCK_SIZE) {
        stream
            .append_block(chunk)
            .expect("sized dictionary accepts the domain");
    }
    col.data = stream;
    dict_encoding_to_compression(col);
    true
}

/// Mark the metadata consequences of a sorted heap on a column.
pub fn assert_sorted_tokens(col: &mut Column) {
    col.metadata.sorted_heap_tokens = Knowledge::True;
}

/// Validate internal consistency of a converted column (testing aid):
/// every index must be inside the dictionary.
pub fn validate_array_compression(col: &Column) -> bool {
    let Compression::Array { dictionary, .. } = &col.compression else {
        return false;
    };
    let n = dictionary.len() as i64;
    col.data.decode_all().iter().all(|&i| i >= 0 && i < n)
}

/// Re-check that the stream header and the heap agree (testing aid).
pub fn validate_heap_tokens(stream: &EncodedStream, heap: &StringHeap) -> bool {
    let h: HeaderView = stream.header();
    let _ = h;
    stream.decode_all().iter().all(|&t| {
        t as u64 == NULL_TOKEN || {
            let t = t as u64;
            (t as usize) < heap.byte_size() && {
                // get_raw panics on bad offsets; probe carefully.
                heap.get(t).is_some()
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_encodings::BLOCK_SIZE;
    use tde_types::DataType;

    #[test]
    fn dict_to_compression_preserves_values() {
        // A date-like column: few distinct wide values.
        let days = [9000i64, 9100, 9050, 9000, 9100, 9200];
        let mut data: Vec<i64> = Vec::new();
        for i in 0..3000 {
            data.push(days[i % days.len()]);
        }
        let mut stream = EncodedStream::new_dict(Width::W8, true, 3);
        for c in data.chunks(BLOCK_SIZE) {
            stream.append_block(c).unwrap();
        }
        let mut col = Column::scalar("d", DataType::Date, stream);
        dict_encoding_to_compression(&mut col);
        assert!(validate_array_compression(&col));
        match &col.compression {
            Compression::Array { dictionary, sorted } => {
                assert!(*sorted);
                assert_eq!(dictionary, &vec![9000, 9050, 9100, 9200]);
            }
            _ => panic!("expected array compression"),
        }
        for (i, &expected) in data.iter().enumerate().step_by(97) {
            assert_eq!(col.value(i as u64).as_i64(), Some(expected));
        }
        // The index stream narrowed to one byte.
        assert_eq!(col.data.width(), Width::W1);
    }

    #[test]
    fn for_to_compression_envelope_dictionary() {
        let data: Vec<i64> = (0..2000).map(|i| 500 + (i % 30)).collect();
        let mut stream = EncodedStream::new_frame(Width::W8, true, 500, 5);
        for c in data.chunks(BLOCK_SIZE) {
            stream.append_block(c).unwrap();
        }
        let body_before = manipulate::packed_body(&stream).to_vec();
        let mut col = Column::scalar("d", DataType::Integer, stream);
        for_encoding_to_compression(&mut col);
        match &col.compression {
            Compression::Array { dictionary, sorted } => {
                assert!(*sorted);
                // Envelope dictionary covers [500, 532), including values
                // that never occur (30 and 31 offsets).
                assert_eq!(dictionary.len(), 32);
                assert_eq!(dictionary[0], 500);
            }
            _ => panic!("expected array compression"),
        }
        // Body reused byte-for-byte.
        assert_eq!(manipulate::packed_body(&col.data), &body_before[..]);
        for (i, &expected) in data.iter().enumerate().step_by(131) {
            assert_eq!(col.value(i as u64).as_i64(), Some(expected));
        }
    }

    #[test]
    fn rle_to_dict_preserves_values_and_runs() {
        let mut data = Vec::new();
        for v in [700i64, 300, 700, 100] {
            data.extend(std::iter::repeat_n(v, 900));
        }
        let mut stream = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W2);
        for c in data.chunks(BLOCK_SIZE) {
            stream.append_block(c).unwrap();
        }
        let mut col = Column::scalar("v", DataType::Integer, stream);
        rle_to_dict_compression(&mut col);
        assert!(validate_array_compression(&col));
        assert_eq!(col.data.algorithm(), Algorithm::RunLength);
        match &col.compression {
            Compression::Array { dictionary, .. } => {
                assert_eq!(dictionary, &vec![100, 300, 700]);
            }
            _ => panic!(),
        }
        for (i, &expected) in data.iter().enumerate().step_by(251) {
            assert_eq!(col.value(i as u64).as_i64(), Some(expected));
        }
    }

    #[test]
    fn heap_sort_via_dictionary() {
        let mut heap = StringHeap::new();
        let mut tokens = Vec::new();
        for s in ["zeta", "alpha", "mike"] {
            tokens.push(heap.append(s) as i64);
        }
        // Token stream referencing the three strings plus a NULL.
        let rows = [
            tokens[0],
            tokens[1],
            tokens[2],
            NULL_TOKEN as i64,
            tokens[1],
        ];
        let mut stream = EncodedStream::new_dict(Width::W8, false, 3);
        stream.append_block(&rows).unwrap();
        let sorted = sort_heap_via_dictionary(&mut stream, &heap, Collation::Binary);
        assert!(sorted.is_sorted(Collation::Binary));
        assert!(validate_heap_tokens(&stream, &sorted));
        // Row values are preserved.
        let decoded = stream.decode_all();
        assert_eq!(sorted.get(decoded[0] as u64), Some("zeta"));
        assert_eq!(sorted.get(decoded[1] as u64), Some("alpha"));
        assert_eq!(sorted.get(decoded[2] as u64), Some("mike"));
        assert_eq!(decoded[3] as u64, NULL_TOKEN);
        assert_eq!(sorted.get(decoded[4] as u64), Some("alpha"));
        // And tokens now compare like strings.
        assert!(decoded[1] < decoded[2] && decoded[2] < decoded[0]);
    }
}
