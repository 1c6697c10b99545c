//! Record and field boundary detection (paper §5.1.1).
//!
//! A sample of rows is tokenized using the record separator (default
//! end-of-line); simple statistical analysis over the sample determines
//! the field separator: the candidate with the most consistent, non-zero
//! per-line count wins.
//!
//! [`scan_records`] is the one tokenizer the bulk paths share (`tokenize`,
//! `split` and `import_bytes` differ only in the [`RecordSink`] they hand
//! it). [`sample_lines`] and [`split_fields`] are the sample-sized
//! formulation of the same rules, used by inference on the first hundred
//! lines and by the tests as the scanner's reference.

/// Field separator candidates, in tie-break priority order.
pub const CANDIDATES: [u8; 4] = [b'|', b',', b'\t', b';'];

/// How many sample lines the sniffers look at.
pub const SAMPLE_LINES: usize = 100;

/// Split the first `limit` lines of `data` (handles missing trailing
/// newline).
pub fn sample_lines(data: &[u8], limit: usize) -> Vec<&[u8]> {
    let mut lines = Vec::with_capacity(limit.min(64));
    let mut start = 0;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            let end = if i > start && data[i - 1] == b'\r' {
                i - 1
            } else {
                i
            };
            lines.push(&data[start..end]);
            start = i + 1;
            if lines.len() == limit {
                return lines;
            }
        }
    }
    if start < data.len() {
        lines.push(&data[start..]);
    }
    lines
}

/// Detect the field separator from a sample: for each candidate compute
/// the per-line occurrence counts; prefer the candidate whose count is
/// non-zero and constant across lines, breaking ties by the larger count
/// and then by candidate priority.
pub fn detect_separator(data: &[u8]) -> u8 {
    let lines = sample_lines(data, SAMPLE_LINES);
    if lines.is_empty() {
        return CANDIDATES[0];
    }
    let mut best = (false, 0u64, usize::MAX); // (consistent, count, priority)
    let mut best_sep = CANDIDATES[0];
    for (prio, &sep) in CANDIDATES.iter().enumerate() {
        let counts: Vec<u64> = lines
            .iter()
            .map(|l| l.iter().filter(|&&b| b == sep).count() as u64)
            .collect();
        let first = counts[0];
        if first == 0 {
            continue;
        }
        let consistent = counts.iter().all(|&c| c == first);
        let key = (consistent, first, usize::MAX - prio);
        if key > best {
            best = key;
            best_sep = sep;
        }
    }
    best_sep
}

/// Split one record into fields. A trailing separator (dbgen's
/// `|`-terminated rows) does not produce a trailing empty field.
pub fn split_fields<'a>(line: &'a [u8], sep: u8, out: &mut Vec<&'a [u8]>) {
    out.clear();
    let line = if line.last() == Some(&sep) {
        &line[..line.len() - 1]
    } else {
        line
    };
    let mut start = 0;
    for (i, &b) in line.iter().enumerate() {
        if b == sep {
            out.push(&line[start..i]);
            start = i + 1;
        }
    }
    out.push(&line[start..]);
}

/// Receives the boundaries [`scan_records`] finds, as byte offsets into
/// the scanned data.
pub trait RecordSink {
    /// One field of the current record: bytes `start..end`.
    fn field(&mut self, start: usize, end: usize);
    /// The current record is complete. Its text ends at `end` (line
    /// terminator excluded) and the next record starts at `next`. Return
    /// `false` to stop the scan.
    fn end_record(&mut self, end: usize, next: usize) -> bool;
}

const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The high bit of every byte of `word` that equals `byte` (exact: no
/// borrow crosses a byte lane).
#[inline]
fn bytes_equal(word: u64, byte: u8) -> u64 {
    let x = word ^ (LOW_BITS * u64::from(byte));
    !((((x & !HIGH_BITS) + !HIGH_BITS) | x) | !HIGH_BITS)
}

/// Scan position: where the current record and its current field began.
struct Scanner<'a, S> {
    data: &'a [u8],
    sep: u8,
    sink: &'a mut S,
    record_start: usize,
    field_start: usize,
}

impl<S: RecordSink> Scanner<'_, S> {
    /// The record's text ends at `end`; the next one starts at `next`.
    /// `false` when the sink stops the scan.
    fn end_record(&mut self, end: usize, next: usize) -> bool {
        let trailing_sep = end > self.record_start && self.data[end - 1] == self.sep;
        if !trailing_sep {
            self.sink.field(self.field_start, end);
        }
        self.record_start = next;
        self.field_start = next;
        self.sink.end_record(end, next)
    }

    /// A separator or newline sits at `at`. `false` when the sink stops
    /// the scan.
    #[inline]
    fn delimiter(&mut self, at: usize) -> bool {
        if self.data[at] != b'\n' {
            self.sink.field(self.field_start, at);
            self.field_start = at + 1;
            return true;
        }
        let cr = at > self.record_start && self.data[at - 1] == b'\r';
        self.end_record(at - usize::from(cr), at + 1)
    }
}

/// Find every record and field boundary of `data`, eight bytes at a time.
///
/// Records end at `\n`; a `\r` directly before it is not part of the
/// record; a final record needs no terminator. Fields are separated by
/// `sep`, and a record's trailing separator (dbgen's `|`-terminated rows)
/// does not produce a trailing empty field. An empty line is a record of
/// one empty field.
pub fn scan_records(data: &[u8], sep: u8, sink: &mut impl RecordSink) {
    let mut s = Scanner {
        data,
        sep,
        sink,
        record_start: 0,
        field_start: 0,
    };
    let mut at = 0usize;
    while let Some(word) = data.get(at..at + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte window"));
        let mut hits = bytes_equal(word, sep) | bytes_equal(word, b'\n');
        while hits != 0 {
            if !s.delimiter(at + (hits.trailing_zeros() / 8) as usize) {
                return;
            }
            hits &= hits - 1;
        }
        at += 8;
    }
    for (at, &b) in data.iter().enumerate().skip(at) {
        if (b == sep || b == b'\n') && !s.delimiter(at) {
            return;
        }
    }
    if s.record_start < data.len() {
        // Unterminated final record (a closing `\r` stays part of it).
        s.end_record(data.len(), data.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_pipe() {
        let data = b"1|foo|2.5|\n2|bar|3.5|\n3|baz|4.5|\n";
        assert_eq!(detect_separator(data), b'|');
    }

    #[test]
    fn detects_comma_with_noise() {
        // Some commas appear inside text, but counts are consistent.
        let data = b"a,b,c\nd,e,f\ng,h,i\n";
        assert_eq!(detect_separator(data), b',');
    }

    #[test]
    fn consistency_beats_count() {
        // '|' appears consistently twice; ',' appears 3 then 1 times.
        let data = b"a|b,c,d,e|f\ng|h,i|j\n";
        assert_eq!(detect_separator(data), b'|');
    }

    #[test]
    fn split_handles_trailing_separator() {
        let mut out = Vec::new();
        split_fields(b"1|foo|2.5|", b'|', &mut out);
        assert_eq!(out, vec![&b"1"[..], b"foo", b"2.5"]);
        split_fields(b"a,b,", b',', &mut out);
        assert_eq!(out, vec![&b"a"[..], b"b"]);
        split_fields(b"a,,c", b',', &mut out);
        assert_eq!(out, vec![&b"a"[..], b"", b"c"]);
    }

    #[test]
    fn sample_lines_handles_crlf_and_no_trailing_newline() {
        let lines = sample_lines(b"a\r\nb\nc", 10);
        assert_eq!(lines, vec![&b"a"[..], b"b", b"c"]);
    }

    /// Collects what the scanner reports, as owned fields per record.
    #[derive(Default)]
    struct Collect {
        records: Vec<Vec<(usize, usize)>>,
        current: Vec<(usize, usize)>,
        ends: Vec<(usize, usize)>,
        stop_after: Option<usize>,
    }

    impl RecordSink for Collect {
        fn field(&mut self, start: usize, end: usize) {
            self.current.push((start, end));
        }
        fn end_record(&mut self, end: usize, next: usize) -> bool {
            self.records.push(std::mem::take(&mut self.current));
            self.ends.push((end, next));
            self.stop_after != Some(self.records.len())
        }
    }

    /// The scanner against the sample-sized reference formulation.
    fn assert_matches_reference(data: &[u8], sep: u8) {
        let mut got = Collect::default();
        scan_records(data, sep, &mut got);
        let lines = sample_lines(data, usize::MAX);
        assert_eq!(got.records.len(), lines.len(), "{data:?}");
        let mut fields = Vec::new();
        for (record, line) in got.records.iter().zip(&lines) {
            split_fields(line, sep, &mut fields);
            let scanned: Vec<&[u8]> = record.iter().map(|&(a, b)| &data[a..b]).collect();
            assert_eq!(scanned, fields, "{data:?}");
        }
        assert!(got.current.is_empty());
    }

    #[test]
    fn scanner_agrees_with_the_sample_splitters() {
        let cases: [&[u8]; 16] = [
            b"",
            b"\n",
            b"\n\n",
            b"a",
            b"a|b",
            b"a|b|",
            b"a|b|\n",
            b"|",
            b"||\n|\n",
            b"a\r\nb\r\n",
            b"a|\r\n",
            b"\r\n",
            b"a\r",
            b"a|b\r",
            b"1|alpha|2.5|1995-01-01|\n2|beta|3.5|1995-01-02|\n3|gamma",
            b"12345678|12345678\n1234567|\n12345678\n|1234567\n\r\n",
        ];
        for data in cases {
            assert_matches_reference(data, b'|');
        }
    }

    #[test]
    fn scanner_agrees_at_every_alignment() {
        // Slide delimiters across the 8-byte word boundary.
        let alphabet = [b'x', b'|', b'\n', b'\r', b'y'];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in 0..40usize {
            for _ in 0..40 {
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        alphabet[(state % 5) as usize]
                    })
                    .collect();
                assert_matches_reference(&data, b'|');
            }
        }
    }

    #[test]
    fn scanner_reports_record_ends_and_stops_on_request() {
        let data = b"a|b\r\nc\nd";
        let mut all = Collect::default();
        scan_records(data, b'|', &mut all);
        assert_eq!(all.ends, vec![(3, 5), (6, 7), (8, 8)]);
        let mut first = Collect {
            stop_after: Some(1),
            ..Collect::default()
        };
        scan_records(data, b'|', &mut first);
        assert_eq!(first.records, vec![vec![(0, 1), (2, 3)]]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(detect_separator(b""), b'|');
        assert!(sample_lines(b"", 5).is_empty());
    }
}
