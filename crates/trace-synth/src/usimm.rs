//! USIMM trace format I/O.
//!
//! The MSC-2012 contest (and the paper's methodology) uses USIMM's simple
//! text format, one record per line:
//!
//! ```text
//! <gap> R <hex-address>
//! <gap> W <hex-address> <hex-pc>
//! ```
//!
//! where `<gap>` is the number of non-memory instructions preceding the
//! operation. Supporting the format means anyone holding the original MSC
//! traces can feed them to this reproduction unchanged.

use std::io::{BufRead, Write};

use crate::record::TraceRecord;

/// Cache-line size used to convert byte addresses to block indices.
pub(crate) const LINE_BYTES: u64 = 64;

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Parses a USIMM-format trace from `reader`.
///
/// Byte addresses are normalized to 64 B block indices. Blank lines are
/// skipped. Hex fields may carry one `0x`/`0X` prefix; a write may carry
/// one PC field after its address, and nothing else may follow.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on the first malformed line; I/O errors are
/// reported as a parse error on the failing line.
pub fn parse<R: BufRead>(reader: R) -> Result<Vec<TraceRecord>, ParseTraceError> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| ParseTraceError {
            line: lineno,
            message: format!("io error: {e}"),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let err = |message: String| ParseTraceError {
            line: lineno,
            message,
        };
        let gap: u32 = parts
            .next()
            .ok_or_else(|| err("missing gap".into()))?
            .parse()
            .map_err(|e| err(format!("bad gap: {e}")))?;
        let op = parts.next().ok_or_else(|| err("missing op".into()))?;
        let hex = |what: &str, field: &str| {
            let digits = field
                .strip_prefix("0x")
                .or_else(|| field.strip_prefix("0X"))
                .unwrap_or(field);
            u64::from_str_radix(digits, 16).map_err(|e| err(format!("bad {what}: {e}")))
        };
        let addr_str = parts.next().ok_or_else(|| err("missing address".into()))?;
        let addr = hex("address", addr_str)?;
        let is_write = match op {
            "R" | "r" => false,
            "W" | "w" => {
                // Writes carry a PC field in USIMM traces; tolerate both.
                if let Some(pc) = parts.next() {
                    hex("pc", pc)?;
                }
                true
            }
            other => return Err(err(format!("unknown op {other:?}"))),
        };
        if let Some(extra) = parts.next() {
            return Err(err(format!("unexpected field {extra:?}")));
        }
        out.push(TraceRecord::new(gap, addr / LINE_BYTES, is_write));
    }
    Ok(out)
}

/// Writes records in USIMM format to `writer` (block indices are expanded
/// back to byte addresses; writes get a zero PC).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn emit<W: Write>(records: &[TraceRecord], mut writer: W) -> std::io::Result<()> {
    for r in records {
        let addr = r.op.block * LINE_BYTES;
        if r.op.is_write {
            writeln!(writer, "{} W 0x{addr:x} 0x0", r.gap_instructions)?;
        } else {
            writeln!(writer, "{} R 0x{addr:x}", r.gap_instructions)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_and_writes() {
        let text = "100 R 0x1000\n50 W 0x1040 0x400\n\n7 r 40\n3 W 0X80\n";
        let records = parse(text.as_bytes()).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], TraceRecord::new(100, 0x1000 / 64, false));
        assert_eq!(records[1], TraceRecord::new(50, 0x1040 / 64, true));
        assert_eq!(records[2], TraceRecord::new(7, 1, false));
        assert_eq!(records[3], TraceRecord::new(3, 2, true));
    }

    #[test]
    fn roundtrip() {
        let records = vec![
            TraceRecord::new(10, 5, false),
            TraceRecord::new(20, 9, true),
        ];
        let mut buf = Vec::new();
        emit(&records, &mut buf).unwrap();
        let parsed = parse(buf.as_slice()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "100 R 0x1000\nnonsense\n";
        let err = parse(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        // At most one hex prefix; one PC after a write address, nothing
        // after a read address.
        for (text, what) in [
            ("1 R 0x0x40\n", "bad address"),
            ("1 W 0x40 junk\n", "bad pc"),
            ("12 R 0x40 junk junk\n", "unexpected field \"junk\""),
            ("12 R 0x40 0x400\n", "unexpected field \"0x400\""),
            ("12 W 0x40 0x400 0x1\n", "unexpected field \"0x1\""),
        ] {
            let err = parse(text.as_bytes()).unwrap_err();
            assert!(err.message.contains(what), "{text:?}: {err}");
        }
    }

    #[test]
    fn unknown_op_rejected() {
        let err = parse("5 X 0x40\n".as_bytes()).unwrap_err();
        assert!(err.message.contains("unknown op"));
    }

    #[test]
    fn bad_gap_rejected() {
        let err = parse("xyz R 0x40\n".as_bytes()).unwrap_err();
        assert!(err.message.contains("bad gap"));
    }
}
