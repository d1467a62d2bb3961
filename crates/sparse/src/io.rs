//! Reader/writer for the libsvm text format.
//!
//! One sample per line: `<label> <col>:<value> <col>:<value> ...` with
//! 1-based column indices (the de-facto convention of the libsvm dataset
//! page the paper downloads from). Comments after `#` are ignored.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::CsrBuilder;
use crate::dataset::Dataset;
use crate::error::SparseError;

/// Parse a dataset in libsvm format from any reader.
///
/// Column indices in the file are 1-based and converted to 0-based; indices
/// within a line must be strictly increasing (as `svm-scale` emits them),
/// and at most 2³² (the largest that fits a 0-based `u32` column id).
pub fn read_libsvm_from<R: Read>(reader: R) -> Result<Dataset, SparseError> {
    let mut b = CsrBuilder::auto_cols();
    let mut labels: Vec<f64> = Vec::new();
    let mut idx: Vec<u32> = Vec::new();
    let mut val: Vec<f64> = Vec::new();
    let mut line = String::new();
    let mut reader = BufReader::new(reader);
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let content = match line.split('#').next() {
            Some(c) => c.trim(),
            None => "",
        };
        if content.is_empty() {
            continue;
        }
        let mut toks = content.split_ascii_whitespace();
        let label_tok = toks.next().ok_or_else(|| SparseError::Parse {
            line: lineno,
            msg: "missing label".into(),
        })?;
        let label: f64 = label_tok.parse().map_err(|_| SparseError::Parse {
            line: lineno,
            msg: format!("bad label '{label_tok}'"),
        })?;
        idx.clear();
        val.clear();
        for tok in toks {
            let (c, v) = tok.split_once(':').ok_or_else(|| SparseError::Parse {
                line: lineno,
                msg: format!("expected col:value, got '{tok}'"),
            })?;
            let c: u64 = c.parse().map_err(|_| SparseError::Parse {
                line: lineno,
                msg: format!("bad column '{c}'"),
            })?;
            if c == 0 {
                return Err(SparseError::Parse {
                    line: lineno,
                    msg: "libsvm columns are 1-based; found 0".into(),
                });
            }
            let col = u32::try_from(c - 1).map_err(|_| SparseError::Parse {
                line: lineno,
                msg: format!("column {c} is past the largest supported column 4294967296"),
            })?;
            let v: f64 = v.parse().map_err(|_| SparseError::Parse {
                line: lineno,
                msg: format!("bad value '{v}'"),
            })?;
            idx.push(col);
            val.push(v);
        }
        b.push_row(&idx, &val).map_err(|e| SparseError::Parse {
            line: lineno,
            msg: e.to_string(),
        })?;
        labels.push(label);
    }
    Dataset::new(b.finish(), labels)
}

/// Parse a dataset in libsvm format from a file path.
pub fn read_libsvm<P: AsRef<Path>>(path: P) -> Result<Dataset, SparseError> {
    read_libsvm_from(std::fs::File::open(path)?)
}

/// Write a dataset in libsvm format to any writer (1-based columns).
pub fn write_libsvm_to<W: Write>(ds: &Dataset, writer: W) -> Result<(), SparseError> {
    let mut w = BufWriter::new(writer);
    for i in 0..ds.len() {
        let y = ds.y[i];
        if y == y.trunc() {
            write!(w, "{}", y as i64)?;
        } else {
            write!(w, "{y}")?;
        }
        for (c, v) in ds.x.row(i).iter() {
            write!(w, " {}:{}", c + 1, fmt_value(v))?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Write a dataset in libsvm format to a file path.
pub fn write_libsvm<P: AsRef<Path>>(ds: &Dataset, path: P) -> Result<(), SparseError> {
    write_libsvm_to(ds, std::fs::File::create(path)?)
}

/// Shortest representation that round-trips through `f64` parsing.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        // Rust's default f64 Display is shortest-roundtrip.
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CsrBuilder;

    fn toy() -> Dataset {
        let mut b = CsrBuilder::new(4);
        b.push_row(&[0, 2], &[1.5, -2.0]).unwrap();
        b.push_row(&[3], &[0.25]).unwrap();
        b.push_row(&[], &[]).unwrap();
        Dataset::new(b.finish(), vec![1.0, -1.0, 1.0]).unwrap()
    }

    #[test]
    fn roundtrip_through_bytes() {
        let ds = toy();
        let mut buf = Vec::new();
        write_libsvm_to(&ds, &mut buf).unwrap();
        let back = read_libsvm_from(&buf[..]).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.y, ds.y);
        assert_eq!(back.x.row(0).indices, ds.x.row(0).indices);
        assert_eq!(back.x.row(0).values, ds.x.row(0).values);
        assert_eq!(back.x.row(1).get(3), 0.25);
        assert!(back.x.row(2).is_empty());
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# header\n\n+1 1:1 3:2 # trailing\n-1 2:0.5\n";
        let ds = read_libsvm_from(text.as_bytes()).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.y, vec![1.0, -1.0]);
        assert_eq!(ds.x.row(0).get(0), 1.0);
        assert_eq!(ds.x.row(0).get(2), 2.0);
        assert_eq!(ds.x.row(1).get(1), 0.5);
    }

    #[test]
    fn rejects_zero_based_columns() {
        let err = read_libsvm_from("+1 0:1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { line: 1, .. }));
    }

    #[test]
    fn columns_past_u32_are_rejected_not_wrapped() {
        // 2^32 is the last 1-based column whose 0-based id fits u32
        let ds = read_libsvm_from(
            "+1 4294967296:5
"
            .as_bytes(),
        )
        .unwrap();
        assert_eq!(ds.x.row(0).indices, [u32::MAX]);
        let err = read_libsvm_from(
            "-1 1:1
+1 4294967297:5
"
            .as_bytes(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, SparseError::Parse { line: 2, msg } if msg.contains("4294967297")),
            "{err}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_libsvm_from("+1 nonsense\n".as_bytes()).is_err());
        assert!(read_libsvm_from("notalabel 1:2\n".as_bytes()).is_err());
        assert!(read_libsvm_from("+1 1:x\n".as_bytes()).is_err());
        // unsorted columns within a row
        assert!(read_libsvm_from("+1 3:1 1:1\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_dataset() {
        let ds = read_libsvm_from("".as_bytes()).unwrap();
        assert_eq!(ds.len(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("shrinksvm-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.libsvm");
        let ds = toy();
        write_libsvm(&ds, &path).unwrap();
        let back = read_libsvm(&path).unwrap();
        assert_eq!(back.y, ds.y);
        std::fs::remove_file(&path).ok();
    }
}
