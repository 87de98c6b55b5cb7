//! Compact binary (de)serialisation for datasets.
//!
//! The paper's dataset is 2 TB of simulator output; ours is smaller but
//! the same shape, and regenerating it still dominates experiment
//! startup. This module stores [`Matrix`]/[`ProgramData`] in a simple
//! little-endian format (magic, dims, raw `f32`s) so harness binaries
//! can cache datasets between runs.
//!
//! The codec has one writer, [`write_program_data`], and one reader,
//! [`read_program_data`]. Both stream through a 64 KiB buffer, so
//! publishing or loading a multi-megabyte entry never holds a second
//! whole-entry copy of it; [`encode_program_data`] and
//! [`decode_program_data`] are the same codec over in-memory bytes.

use crate::dataset::ProgramData;
use crate::features::Matrix;
use std::io::{self, Read, Write};

const MAGIC: u32 = 0x5046_5643; // "PFVC"

/// On-disk codec version. Bump whenever the byte layout changes; the
/// dataset cache folds it into every cache key, so a bump silently
/// invalidates all previously published entries instead of tripping
/// [`BinError::BadHeader`] at load time.
pub const CODEC_VERSION: u32 = 1;

/// Bytes the streamed reader and writer move per `read`/`write` call
/// (a multiple of 4, so `f32` payloads never straddle two chunks).
const CHUNK: usize = 64 << 10;

/// Serialization failures. Every decode failure is recoverable: the
/// decoder never panics and never returns a partially-filled
/// [`ProgramData`], so callers (the dataset cache in particular) can
/// treat any `BinError` as "regenerate this entry".
#[derive(Debug, PartialEq, Eq)]
pub enum BinError {
    /// Wrong magic number or version.
    BadHeader,
    /// Input ended early or dims disagree with payload.
    Truncated,
    /// A string field was not valid UTF-8.
    BadString,
    /// Structurally well-formed but self-contradictory: trailing bytes
    /// after the payload, or feature/target row counts that disagree.
    Inconsistent,
    /// The underlying reader failed (other than by ending early).
    Io(io::ErrorKind),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::BadHeader => write!(f, "bad magic/version"),
            BinError::Truncated => write!(f, "truncated payload"),
            BinError::BadString => write!(f, "invalid utf-8 string"),
            BinError::Inconsistent => write!(f, "inconsistent payload"),
            BinError::Io(kind) => write!(f, "read failed: {kind}"),
        }
    }
}

impl std::error::Error for BinError {}

// Little-endian stream helpers; this format is simple enough that a
// serialization framework would be pure overhead.

/// The writing end: bytes gather in one `CHUNK`-sized buffer that is
/// handed to the writer whenever it fills.
struct Sink<'w, W> {
    out: &'w mut W,
    buf: Vec<u8>,
}

impl<W: Write> Sink<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.buf.len() + bytes.len() > CHUNK {
            self.flush()?;
        }
        if bytes.len() > CHUNK {
            return self.out.write_all(bytes);
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn matrix(&mut self, m: &Matrix) -> io::Result<()> {
        self.put(&(m.rows as u64).to_le_bytes())?;
        self.put(&(m.cols as u64).to_le_bytes())?;
        let mut rest = m.data.as_slice();
        while !rest.is_empty() {
            let room = (CHUNK - self.buf.len()) / 4;
            if room == 0 {
                self.flush()?;
                continue;
            }
            let (now, later) = rest.split_at(room.min(rest.len()));
            for v in now {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            rest = later;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// The reading end: `left` is how many bytes of the encoding remain,
/// so every length taken from the untrusted header is checked against
/// it *before* anything is allocated for it.
struct Source<'r, R> {
    input: &'r mut R,
    left: u64,
}

impl<R: Read> Source<'_, R> {
    /// `n` bytes of the remaining encoding as a `usize`, or `Truncated`
    /// when fewer remain.
    fn claim(&self, n: u64) -> Result<usize, BinError> {
        if n > self.left {
            return Err(BinError::Truncated);
        }
        usize::try_from(n).map_err(|_| BinError::Truncated)
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), BinError> {
        self.claim(buf.len() as u64)?;
        self.input.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => BinError::Truncated,
            kind => BinError::Io(kind),
        })?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, BinError> {
        let mut b = [0; 4];
        self.fill(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, BinError> {
        let mut b = [0; 8];
        self.fill(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// One matrix, its payload read through `chunk`.
    fn matrix(&mut self, chunk: &mut [u8]) -> Result<Matrix, BinError> {
        let rows = self.u64()?;
        let cols = self.u64()?;
        let n = rows.checked_mul(cols).ok_or(BinError::Truncated)?;
        // The dims come from an untrusted header: a corrupt entry
        // claiming terabyte-scale dims must fail with `Truncated`, not
        // abort in the allocator.
        let mut left = self.claim(n.checked_mul(4).ok_or(BinError::Truncated)?)?;
        let mut data = Vec::with_capacity(left / 4);
        while left > 0 {
            let take = left.min(chunk.len());
            let part = &mut chunk[..take];
            self.fill(part)?;
            data.extend(
                part.chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
            left -= part.len();
        }
        let dim = |v: u64| usize::try_from(v).map_err(|_| BinError::Truncated);
        Ok(Matrix {
            rows: dim(rows)?,
            cols: dim(cols)?,
            data,
        })
    }
}

/// Stream one program's dataset to `out` in writes of at most 64 KiB
/// (a name longer than that goes out in one write of its own).
pub fn write_program_data<W: Write>(out: &mut W, d: &ProgramData) -> io::Result<()> {
    let mut sink = Sink {
        out,
        buf: Vec::with_capacity(CHUNK),
    };
    sink.put(&MAGIC.to_le_bytes())?;
    sink.put(&CODEC_VERSION.to_le_bytes())?;
    sink.put(&(d.name.len() as u32).to_le_bytes())?;
    sink.put(d.name.as_bytes())?;
    sink.matrix(&d.features)?;
    sink.matrix(&d.targets)?;
    sink.flush()
}

/// Stream one program's dataset out of `input`, whose encoding is
/// exactly `len` bytes long (for a file, its size), in reads of at most
/// 64 KiB (the name is read whole, after its length is checked).
///
/// Rejects (rather than silently accepting) input that decodes but is
/// self-contradictory: bytes left over within `len` after the payload,
/// or feature and target matrices with different row counts — both
/// symptoms of a corrupt or spliced file that must not surface as a
/// usable [`ProgramData`]. Every length in the header is checked
/// against what remains of `len` before it is allocated, and a failing
/// `input` is [`BinError::Io`]; nothing here panics.
pub fn read_program_data<R: Read>(input: &mut R, len: u64) -> Result<ProgramData, BinError> {
    let mut src = Source { input, left: len };
    if src.u32()? != MAGIC || src.u32()? != CODEC_VERSION {
        return Err(BinError::BadHeader);
    }
    let name_len = src.u32()?;
    let mut name = vec![0; src.claim(u64::from(name_len))?];
    src.fill(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| BinError::BadString)?;
    let mut chunk = vec![0; src.left.min(CHUNK as u64) as usize];
    let features = src.matrix(&mut chunk)?;
    let targets = src.matrix(&mut chunk)?;
    if src.left != 0 || features.rows != targets.rows {
        return Err(BinError::Inconsistent);
    }
    Ok(ProgramData {
        name,
        features,
        targets,
    })
}

/// Encode one program's dataset: [`write_program_data`] into memory.
pub fn encode_program_data(d: &ProgramData) -> Vec<u8> {
    let mut buf =
        Vec::with_capacity(32 + d.name.len() + 4 * (d.features.data.len() + d.targets.data.len()));
    write_program_data(&mut buf, d).expect("writing to a Vec cannot fail");
    buf
}

/// Decode one program's dataset: [`read_program_data`] over `buf`.
pub fn decode_program_data(buf: &[u8]) -> Result<ProgramData, BinError> {
    let mut input = buf;
    read_program_data(&mut input, buf.len() as u64)
}

/// Read a dataset from a file through [`read_program_data`].
pub fn load_program_data(path: &std::path::Path) -> io::Result<ProgramData> {
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    read_program_data(&mut file, len).map_err(|e| match e {
        BinError::Io(kind) => io::Error::from(kind),
        e => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::NUM_FEATURES;

    fn sample() -> ProgramData {
        let mut features = Matrix::zeros(7, NUM_FEATURES);
        let mut targets = Matrix::zeros(7, 3);
        for i in 0..7 {
            features.row_mut(i)[i % NUM_FEATURES] = i as f32 * 0.5;
            targets.row_mut(i)[i % 3] = -(i as f32);
        }
        ProgramData {
            name: "505.mcf-like".into(),
            features,
            targets,
        }
    }

    /// A dataset whose payload spans several chunks and whose name
    /// alone exceeds one.
    fn large() -> ProgramData {
        let rows = 2 * CHUNK / (4 * NUM_FEATURES) + 3;
        let mut features = Matrix::zeros(rows, NUM_FEATURES);
        for (i, v) in features.data.iter_mut().enumerate() {
            *v = i as f32 * 0.25 - 7.0;
        }
        let mut targets = Matrix::zeros(rows, 5);
        for (i, v) in targets.data.iter_mut().enumerate() {
            *v = (i % 97) as f32;
        }
        ProgramData {
            name: "p".repeat(CHUNK + 5),
            features,
            targets,
        }
    }

    /// Stream `raw` as `len` bytes.
    fn read(raw: &[u8], len: u64) -> Result<ProgramData, BinError> {
        let mut input = raw;
        read_program_data(&mut input, len)
    }

    /// A writer that records the size of every `write` call.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        calls: Vec<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A reader over a byte slice that fails once `fail_at` bytes have
    /// been read, and records the largest read asked of it.
    struct Flaky<'a> {
        rest: &'a [u8],
        fail_at: usize,
        read: usize,
        widest: usize,
    }

    impl Read for Flaky<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            if self.read >= self.fail_at {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "device gone"));
            }
            let n = buf.len().min(self.rest.len()).min(self.fail_at - self.read);
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for d in [sample(), large()] {
            let decoded = decode_program_data(&encode_program_data(&d)).unwrap();
            assert_eq!(decoded.name, d.name);
            assert_eq!(decoded.features, d.features);
            assert_eq!(decoded.targets, d.targets);
        }
    }

    #[test]
    fn streamed_writer_emits_the_encoding_in_chunks() {
        for d in [sample(), large()] {
            let mut out = Recorder::default();
            write_program_data(&mut out, &d).unwrap();
            assert!(
                out.bytes == encode_program_data(&d),
                "{} bytes differ",
                d.name.len()
            );
            // Only a field longer than a chunk (the long name) may go
            // out in one larger write.
            let oversized: Vec<_> = out.calls.iter().filter(|&&n| n > CHUNK).collect();
            assert!(
                oversized.iter().all(|&&n| n == d.name.len()),
                "{oversized:?}"
            );
        }
    }

    #[test]
    fn streamed_reader_reads_in_chunks() {
        let d = large();
        let raw = encode_program_data(&d);
        let mut input = Flaky {
            rest: &raw,
            fail_at: usize::MAX,
            read: 0,
            widest: 0,
        };
        let back = read_program_data(&mut input, raw.len() as u64).unwrap();
        assert_eq!(back.features, d.features);
        assert_eq!(back.targets, d.targets);
        // The name is read into its own buffer; every payload read is
        // at most one chunk.
        assert_eq!(input.widest, d.name.len());
        let short_name = ProgramData {
            name: "x".into(),
            ..d
        };
        let raw = encode_program_data(&short_name);
        let mut input = Flaky {
            rest: &raw,
            fail_at: usize::MAX,
            read: 0,
            widest: 0,
        };
        read_program_data(&mut input, raw.len() as u64).unwrap();
        assert_eq!(input.widest, CHUNK);
    }

    #[test]
    fn a_failing_reader_is_a_typed_error() {
        let raw = encode_program_data(&large());
        for fail_at in [0, 3, 20, CHUNK + 40, raw.len() / 2, raw.len() - 1] {
            let mut input = Flaky {
                rest: &raw,
                fail_at,
                read: 0,
                widest: 0,
            };
            assert_eq!(
                read_program_data(&mut input, raw.len() as u64).unwrap_err(),
                BinError::Io(io::ErrorKind::BrokenPipe),
                "failing after {fail_at} bytes"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = encode_program_data(&sample());
        raw[0] ^= 0xff;
        assert!(matches!(
            decode_program_data(&raw),
            Err(BinError::BadHeader)
        ));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let raw = encode_program_data(&sample());
        let cut = &raw[..raw.len() - 5];
        assert!(matches!(decode_program_data(cut), Err(BinError::Truncated)));
    }

    #[test]
    fn absurd_header_dims_are_rejected_without_allocating() {
        // A corrupt header claiming ~10^15 elements must fail cleanly
        // (the claimed payload exceeds the input), not abort inside the
        // allocator.
        let mut raw = encode_program_data(&sample());
        // Matrix dims start right after magic(4) + version(4) + name
        // len(4) + name bytes.
        let dims_off = 12 + "505.mcf-like".len();
        raw[dims_off..dims_off + 8].copy_from_slice(&(1u64 << 30).to_le_bytes());
        raw[dims_off + 8..dims_off + 16].copy_from_slice(&(1u64 << 20).to_le_bytes());
        assert_eq!(decode_program_data(&raw).unwrap_err(), BinError::Truncated);
        // The same through a stream that cannot supply the payload: the
        // reader stops at the dims, before asking for a single payload
        // byte.
        let mut input = Flaky {
            rest: &raw,
            fail_at: dims_off + 16,
            read: 0,
            widest: 0,
        };
        assert_eq!(
            read_program_data(&mut input, raw.len() as u64).unwrap_err(),
            BinError::Truncated
        );
        // A name length past the input is refused the same way.
        let mut raw = encode_program_data(&sample());
        raw[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_program_data(&raw).unwrap_err(), BinError::Truncated);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut raw = encode_program_data(&sample());
        raw.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        assert!(matches!(
            decode_program_data(&raw),
            Err(BinError::Inconsistent)
        ));
        assert_eq!(
            read(&raw, raw.len() as u64).unwrap_err(),
            BinError::Inconsistent
        );
    }

    #[test]
    fn mismatched_row_counts_are_rejected() {
        // An encoding whose features claim 2 rows but whose targets
        // claim 1: structurally valid, semantically corrupt.
        let raw = encode_program_data(&ProgramData {
            name: "x".into(),
            features: Matrix::zeros(2, 3),
            targets: Matrix::zeros(1, 1),
        });
        assert!(matches!(
            decode_program_data(&raw),
            Err(BinError::Inconsistent)
        ));
    }

    #[test]
    fn every_prefix_of_a_valid_encoding_fails_cleanly() {
        // No prefix may panic or decode to a partial ProgramData: the
        // cache layer's crash-mid-write story depends on this. Each
        // prefix fails as its own length and as a stream that ends
        // before the length it claims.
        let raw = encode_program_data(&sample());
        for cut in 0..raw.len() {
            assert!(
                decode_program_data(&raw[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
            assert_eq!(
                read(&raw[..cut], raw.len() as u64).unwrap_err(),
                BinError::Truncated,
                "stream cut after {cut} bytes"
            );
        }
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let d = ProgramData {
            name: String::new(),
            features: Matrix::zeros(0, NUM_FEATURES),
            targets: Matrix::zeros(0, 0),
        };
        let decoded = decode_program_data(&encode_program_data(&d)).unwrap();
        assert_eq!(decoded.len(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("perfvec_binio_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.pvd");
        let d = large();
        let mut file = std::fs::File::create(&path).unwrap();
        write_program_data(&mut file, &d).unwrap();
        drop(file);
        let back = load_program_data(&path).unwrap();
        assert_eq!(back.features, d.features);
        assert_eq!(back.targets, d.targets);
        std::fs::remove_dir_all(&dir).ok();
    }
}
