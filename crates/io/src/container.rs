//! The shared single-artifact container format (`"SFCN"`).
//!
//! Both persistent stores — [`super::CheckpointStore`] (`.sfcc`) and
//! [`super::MeshArtifactStore`] (`.sfma`) — file their payloads in the same
//! chunked, schema-versioned container, in the spirit of the DMPlex
//! parallel-mesh checkpoints of Hapla et al.: *one* file per artifact
//! regardless of how many ranks produced it, self-describing enough that a
//! different world size can consume it later.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   magic "SFCN" | container schema u32 | kind (4 bytes) | payload version u32
//! chunks   raw payload bytes, appended back to back
//! footer   directory | dir CRC-32 u32 | dir offset u64 | magic "SFCN"
//! dir      count u32, then per chunk: name len u16 | name | offset u64 | len u64 | CRC-32 u32
//! ```
//!
//! Every chunk carries its own CRC-32 (IEEE polynomial), so a bit flip is
//! pinned to a named chunk with expected-vs-actual checksums instead of
//! poisoning the whole file; the directory is checksummed separately so a torn footer is a
//! typed error too. Writers stream chunk bytes straight to the backing
//! `Write` — the container is never buffered whole in memory — and readers
//! seek to one chunk at a time.

use std::fmt;
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Container magic: "SFCN" = SpecFem CoNtainer.
pub const CONTAINER_MAGIC: [u8; 4] = *b"SFCN";

/// Version of the container framing itself (header/directory/footer).
/// Payload layouts carry their own version in the header's fourth word.
pub const CONTAINER_SCHEMA_VERSION: u32 = 1;

const HEADER_LEN: u64 = 16;
const FOOTER_LEN: u64 = 16;

/// A typed artifact failure: every variant names the file, and corruption
/// names the chunk with the expected-vs-actual CRC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Underlying filesystem failure.
    Io {
        /// Artifact path.
        file: String,
        /// OS error description.
        detail: String,
    },
    /// Structurally invalid container or chunk payload (truncation, bad
    /// magic, bad tags, missing chunks).
    Format {
        /// Artifact path.
        file: String,
        /// What was malformed.
        detail: String,
    },
    /// Schema or payload version this build does not read.
    Version {
        /// Artifact path.
        file: String,
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A chunk's bytes do not match its stored CRC-32.
    Corrupt {
        /// Artifact path.
        file: String,
        /// The chunk whose checksum failed (`"directory"` for the footer).
        chunk: String,
        /// CRC stored in the directory.
        expected: u32,
        /// CRC computed from the bytes on disk.
        actual: u32,
    },
    /// The artifact is filed under a different content key.
    KeyMismatch {
        /// Artifact path.
        file: String,
        /// Fingerprint stored in the artifact.
        found: u64,
        /// Fingerprint the caller expected.
        expected: u64,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { file, detail } => write!(f, "artifact i/o error in {file}: {detail}"),
            Self::Format { file, detail } => write!(f, "artifact format error in {file}: {detail}"),
            Self::Version {
                file,
                found,
                supported,
            } => write!(
                f,
                "unsupported artifact version {found} in {file} (this build reads {supported})"
            ),
            Self::Corrupt {
                file,
                chunk,
                expected,
                actual,
            } => write!(
                f,
                "artifact checksum mismatch in {file} chunk '{chunk}': \
                 expected {expected:#010x}, actual {actual:#010x}"
            ),
            Self::KeyMismatch {
                file,
                found,
                expected,
            } => write!(
                f,
                "artifact key mismatch in {file}: artifact {found:016x}, expected {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

pub(crate) fn io_err(file: &str, context: &str, e: std::io::Error) -> ArtifactError {
    ArtifactError::Io {
        file: file.to_string(),
        detail: format!("{context}: {e}"),
    }
}

/// Incremental CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), usable
/// over streamed chunk writes.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self(0xFFFF_FFFF)
    }
}

impl Crc32 {
    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.0;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        self.0 = crc;
    }

    /// The finished checksum.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// One-shot CRC-32 over a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::default();
    c.update(data);
    c.finish()
}

// ---- little-endian byte building blocks shared by both payload codecs ----

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over one chunk's payload bytes producing typed
/// [`ArtifactError::Format`] errors that name the file and chunk.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    file: String,
    chunk: String,
}

impl<'a> ByteReader<'a> {
    /// Read `buf`, attributing errors to `file`/`chunk`.
    pub fn new(buf: &'a [u8], file: impl Into<String>, chunk: impl Into<String>) -> Self {
        Self {
            buf,
            pos: 0,
            file: file.into(),
            chunk: chunk.into(),
        }
    }

    /// A format error at the current position.
    pub fn format_err(&self, detail: impl fmt::Display) -> ArtifactError {
        ArtifactError::Format {
            file: self.file.clone(),
            detail: format!("chunk '{}': {detail}", self.chunk),
        }
    }

    /// Whether every byte has been consumed.
    pub fn finished(&self) -> Result<(), ArtifactError> {
        if self.pos != self.buf.len() {
            return Err(self.format_err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.pos + n > self.buf.len() {
            return Err(self.format_err(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[derive(Debug, Clone)]
struct DirEntry {
    name: String,
    offset: u64,
    len: u64,
    crc: u32,
}

/// Streaming writer: header up front, chunks appended with per-chunk CRCs,
/// directory sealed in [`ContainerWriter::finish`].
pub struct ContainerWriter<W: Write> {
    w: W,
    file: String,
    offset: u64,
    entries: Vec<DirEntry>,
}

impl<W: Write> ContainerWriter<W> {
    /// Start a container of the given `kind` (e.g. `*b"CKPT"`) whose
    /// payload layout is `payload_version`. `file` labels errors only.
    pub fn new(
        mut w: W,
        file: impl Into<String>,
        kind: [u8; 4],
        payload_version: u32,
    ) -> Result<Self, ArtifactError> {
        let file = file.into();
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&CONTAINER_MAGIC);
        put_u32(&mut header, CONTAINER_SCHEMA_VERSION);
        header.extend_from_slice(&kind);
        put_u32(&mut header, payload_version);
        w.write_all(&header)
            .map_err(|e| io_err(&file, "write container header", e))?;
        Ok(Self {
            w,
            file,
            offset: HEADER_LEN,
            entries: Vec::new(),
        })
    }

    /// Append one chunk from a byte slice.
    pub fn chunk(&mut self, name: &str, payload: &[u8]) -> Result<(), ArtifactError> {
        self.w
            .write_all(payload)
            .map_err(|e| io_err(&self.file, &format!("write chunk '{name}'"), e))?;
        self.entries.push(DirEntry {
            name: name.to_string(),
            offset: self.offset,
            len: payload.len() as u64,
            crc: crc32(payload),
        });
        self.offset += payload.len() as u64;
        Ok(())
    }

    /// Append one chunk by streaming `f32`s — see [`Self::chunk_le`].
    pub fn chunk_f32s(
        &mut self,
        name: &str,
        values: impl Iterator<Item = f32>,
    ) -> Result<(), ArtifactError> {
        self.chunk_le(name, values.map(f32::to_le_bytes))
    }

    /// Append one chunk by streaming fixed-width little-endian values
    /// (`x.to_le_bytes()`) in bounded batches — the path the big arrays
    /// take, so a merged checkpoint or a mesh never buffers a second copy
    /// of itself in memory.
    pub fn chunk_le<const N: usize>(
        &mut self,
        name: &str,
        values: impl Iterator<Item = [u8; N]>,
    ) -> Result<(), ArtifactError> {
        const BATCH_BYTES: usize = 64 * 1024;
        let mut crc = Crc32::default();
        let mut written = 0u64;
        let mut buf = Vec::with_capacity(BATCH_BYTES + N);
        for v in values {
            buf.extend_from_slice(&v);
            if buf.len() >= BATCH_BYTES {
                crc.update(&buf);
                self.w
                    .write_all(&buf)
                    .map_err(|e| io_err(&self.file, &format!("write chunk '{name}'"), e))?;
                written += buf.len() as u64;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            crc.update(&buf);
            self.w
                .write_all(&buf)
                .map_err(|e| io_err(&self.file, &format!("write chunk '{name}'"), e))?;
            written += buf.len() as u64;
        }
        self.entries.push(DirEntry {
            name: name.to_string(),
            offset: self.offset,
            len: written,
            crc: crc.finish(),
        });
        self.offset += written;
        Ok(())
    }

    /// Seal the directory and footer; returns the backing writer and the
    /// total container size in bytes.
    pub fn finish(mut self) -> Result<(W, u64), ArtifactError> {
        let mut dir = Vec::new();
        put_u32(&mut dir, self.entries.len() as u32);
        for e in &self.entries {
            dir.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
            dir.extend_from_slice(e.name.as_bytes());
            put_u64(&mut dir, e.offset);
            put_u64(&mut dir, e.len);
            put_u32(&mut dir, e.crc);
        }
        let dir_crc = crc32(&dir);
        let dir_offset = self.offset;
        let mut footer = dir;
        put_u32(&mut footer, dir_crc);
        put_u64(&mut footer, dir_offset);
        footer.extend_from_slice(&CONTAINER_MAGIC);
        self.w
            .write_all(&footer)
            .map_err(|e| io_err(&self.file, "write container footer", e))?;
        Ok((self.w, self.offset + footer.len() as u64))
    }
}

/// Write a whole container atomically: bytes stream to `<path>.tmp`, the
/// file is fsynced, then renamed into place (and the directory fsynced,
/// best-effort), so a kill mid-write never leaves a half-written container
/// under the real name.
pub fn write_container_atomic(
    path: &Path,
    kind: [u8; 4],
    payload_version: u32,
    build: impl FnOnce(&mut ContainerWriter<BufWriter<fs::File>>) -> Result<(), ArtifactError>,
) -> Result<u64, ArtifactError> {
    let label = path.display().to_string();
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    let f = fs::File::create(&tmp).map_err(|e| io_err(&label, "create temp", e))?;
    let mut w = ContainerWriter::new(BufWriter::new(f), &label, kind, payload_version)?;
    build(&mut w)?;
    let (buf, bytes) = w.finish()?;
    let f = buf
        .into_inner()
        .map_err(|e| io_err(&label, "flush temp", e.into_error()))?;
    f.sync_all().map_err(|e| io_err(&label, "sync temp", e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err(&label, "rename into place", e))?;
    // Make the rename itself durable (best-effort; not all filesystems
    // support opening a directory for sync).
    if let Some(parent) = path.parent() {
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(bytes)
}

/// Reader over any `Read + Seek` source; chunks are fetched one at a time
/// and CRC-validated on every read.
pub struct ContainerReader<R: Read + Seek> {
    r: R,
    file: String,
    kind: [u8; 4],
    payload_version: u32,
    dir: Vec<DirEntry>,
}

impl<R: Read + Seek> fmt::Debug for ContainerReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContainerReader")
            .field("file", &self.file)
            .field("kind", &self.kind)
            .field("payload_version", &self.payload_version)
            .field("chunks", &self.dir.len())
            .finish_non_exhaustive()
    }
}

impl ContainerReader<fs::File> {
    /// Open a container file.
    pub fn open(path: &Path) -> Result<Self, ArtifactError> {
        let label = path.display().to_string();
        let f = fs::File::open(path).map_err(|e| io_err(&label, "open", e))?;
        Self::new(f, label)
    }
}

impl<R: Read + Seek> ContainerReader<R> {
    /// Parse the header, footer and directory of `r`.
    pub fn new(mut r: R, file: impl Into<String>) -> Result<Self, ArtifactError> {
        let file = file.into();
        let total = r
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&file, "seek end", e))?;
        if total < HEADER_LEN + FOOTER_LEN {
            return Err(ArtifactError::Format {
                file,
                detail: format!("file too short ({total} bytes) to be a container"),
            });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        r.seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&file, "seek header", e))?;
        r.read_exact(&mut header)
            .map_err(|e| io_err(&file, "read header", e))?;
        if header[0..4] != CONTAINER_MAGIC {
            return Err(ArtifactError::Format {
                file,
                detail: format!("bad container magic {:?}", &header[0..4]),
            });
        }
        let schema = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if schema != CONTAINER_SCHEMA_VERSION {
            return Err(ArtifactError::Version {
                file,
                found: schema,
                supported: CONTAINER_SCHEMA_VERSION,
            });
        }
        let kind = header[8..12].try_into().unwrap();
        let payload_version = u32::from_le_bytes(header[12..16].try_into().unwrap());
        let mut footer = [0u8; FOOTER_LEN as usize];
        r.seek(SeekFrom::End(-(FOOTER_LEN as i64)))
            .map_err(|e| io_err(&file, "seek footer", e))?;
        r.read_exact(&mut footer)
            .map_err(|e| io_err(&file, "read footer", e))?;
        if footer[12..16] != CONTAINER_MAGIC {
            return Err(ArtifactError::Format {
                file,
                detail: "bad footer magic (torn or truncated container)".to_string(),
            });
        }
        let dir_crc = u32::from_le_bytes(footer[0..4].try_into().unwrap());
        let dir_offset = u64::from_le_bytes(footer[4..12].try_into().unwrap());
        if dir_offset < HEADER_LEN || dir_offset > total - FOOTER_LEN {
            return Err(ArtifactError::Format {
                file,
                detail: format!("directory offset {dir_offset} out of range"),
            });
        }
        let dir_len = (total - FOOTER_LEN - dir_offset) as usize;
        let mut dir_bytes = vec![0u8; dir_len];
        r.seek(SeekFrom::Start(dir_offset))
            .map_err(|e| io_err(&file, "seek directory", e))?;
        r.read_exact(&mut dir_bytes)
            .map_err(|e| io_err(&file, "read directory", e))?;
        let actual = crc32(&dir_bytes);
        if actual != dir_crc {
            return Err(ArtifactError::Corrupt {
                file,
                chunk: "directory".to_string(),
                expected: dir_crc,
                actual,
            });
        }
        let mut br = ByteReader::new(&dir_bytes, &file, "directory");
        let count = br.u32()? as usize;
        let mut dir = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = u16::from_le_bytes(br.take(2)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(br.take(name_len)?.to_vec())
                .map_err(|e| br.format_err(format!("bad chunk name: {e}")))?;
            let offset = br.u64()?;
            let len = br.u64()?;
            let crc = br.u32()?;
            if offset < HEADER_LEN || offset + len > dir_offset {
                return Err(br.format_err(format!("chunk '{name}' extent out of range")));
            }
            dir.push(DirEntry {
                name,
                offset,
                len,
                crc,
            });
        }
        br.finished()?;
        Ok(Self {
            r,
            file,
            kind,
            payload_version,
            dir,
        })
    }

    /// The container kind tag (e.g. `*b"CKPT"`).
    pub fn kind(&self) -> [u8; 4] {
        self.kind
    }

    /// The payload layout version from the header.
    pub fn payload_version(&self) -> u32 {
        self.payload_version
    }

    /// The file label errors are attributed to.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Chunk names in directory order.
    pub fn chunk_names(&self) -> Vec<String> {
        self.dir.iter().map(|e| e.name.clone()).collect()
    }

    /// Byte size of a chunk, if present.
    pub fn chunk_len(&self, name: &str) -> Option<u64> {
        self.dir.iter().find(|e| e.name == name).map(|e| e.len)
    }

    /// Read one chunk, validating its CRC; `Ok(None)` when absent.
    pub fn chunk_opt(&mut self, name: &str) -> Result<Option<Vec<u8>>, ArtifactError> {
        let Some(entry) = self.dir.iter().find(|e| e.name == name).cloned() else {
            return Ok(None);
        };
        self.r
            .seek(SeekFrom::Start(entry.offset))
            .map_err(|e| io_err(&self.file, &format!("seek chunk '{name}'"), e))?;
        let mut payload = vec![0u8; entry.len as usize];
        self.r
            .read_exact(&mut payload)
            .map_err(|e| io_err(&self.file, &format!("read chunk '{name}'"), e))?;
        let actual = crc32(&payload);
        if actual != entry.crc {
            return Err(ArtifactError::Corrupt {
                file: self.file.clone(),
                chunk: name.to_string(),
                expected: entry.crc,
                actual,
            });
        }
        Ok(Some(payload))
    }

    /// Read one required chunk, validating its CRC.
    pub fn chunk(&mut self, name: &str) -> Result<Vec<u8>, ArtifactError> {
        self.chunk_opt(name)?.ok_or_else(|| ArtifactError::Format {
            file: self.file.clone(),
            detail: format!("missing chunk '{name}'"),
        })
    }

    /// Read one required chunk holding exactly `expect` little-endian
    /// values of `N` bytes each (`from_le` is e.g. `f32::from_le_bytes`) —
    /// the one typed-array decoder. The count comes from the artifact's
    /// own metadata, so a CRC-valid chunk of any other length is a typed
    /// [`ArtifactError::Format`], never an array that disagrees with the
    /// sizes the rest of the artifact claims.
    pub fn chunk_le<T, const N: usize>(
        &mut self,
        name: &str,
        expect: usize,
        from_le: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ArtifactError> {
        let buf = self.chunk(name)?;
        if expect.checked_mul(N) != Some(buf.len()) {
            return Err(ArtifactError::Format {
                file: self.file.clone(),
                detail: format!(
                    "chunk '{name}' holds {} bytes, expected {expect} values of {N} bytes",
                    buf.len()
                ),
            });
        }
        Ok(buf
            .chunks_exact(N)
            .map(|c| from_le(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn build_bytes() -> Vec<u8> {
        let mut w =
            ContainerWriter::new(Cursor::new(Vec::new()), "test.sfcn", *b"TEST", 3).unwrap();
        w.chunk("alpha", b"hello world").unwrap();
        w.chunk_f32s("beta", (0..100_000).map(|i| i as f32))
            .unwrap();
        w.chunk("empty", b"").unwrap();
        let (cur, bytes) = w.finish().unwrap();
        let v = cur.into_inner();
        assert_eq!(v.len() as u64, bytes);
        v
    }

    #[test]
    fn roundtrip_preserves_chunks_and_metadata() {
        let bytes = build_bytes();
        let mut r = ContainerReader::new(Cursor::new(&bytes[..]), "test.sfcn").unwrap();
        assert_eq!(r.kind(), *b"TEST");
        assert_eq!(r.payload_version(), 3);
        assert_eq!(r.chunk_names(), vec!["alpha", "beta", "empty"]);
        assert_eq!(r.chunk("alpha").unwrap(), b"hello world");
        let beta = r.chunk("beta").unwrap();
        assert_eq!(beta.len(), 400_000);
        assert_eq!(
            f32::from_le_bytes(beta[4 * 99_999..].try_into().unwrap()),
            99_999.0
        );
        assert_eq!(r.chunk("empty").unwrap(), b"");
        assert!(r.chunk_opt("gamma").unwrap().is_none());
        assert!(matches!(
            r.chunk("gamma").unwrap_err(),
            ArtifactError::Format { .. }
        ));
    }

    #[test]
    fn bit_flip_names_the_chunk_and_both_crcs() {
        let mut bytes = build_bytes();
        // Flip a bit inside "beta" (well past the 16-byte header + 11-byte
        // "alpha" chunk).
        bytes[1000] ^= 0x04;
        let mut r = ContainerReader::new(Cursor::new(&bytes[..]), "test.sfcn").unwrap();
        assert_eq!(r.chunk("alpha").unwrap(), b"hello world");
        match r.chunk("beta").unwrap_err() {
            ArtifactError::Corrupt {
                file,
                chunk,
                expected,
                actual,
            } => {
                assert_eq!(file, "test.sfcn");
                assert_eq!(chunk, "beta");
                assert_ne!(expected, actual);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Display carries the word the fallback machinery greps for.
        let msg = r.chunk("beta").unwrap_err().to_string();
        assert!(msg.contains("checksum"), "{msg}");
    }

    #[test]
    fn truncation_and_torn_header_are_typed_format_errors() {
        let bytes = build_bytes();
        let err = ContainerReader::new(Cursor::new(&bytes[..bytes.len() - 7]), "t").unwrap_err();
        assert!(matches!(err, ArtifactError::Format { .. }), "{err:?}");
        let mut torn = bytes.clone();
        torn[0..4].copy_from_slice(b"XXXX");
        let err = ContainerReader::new(Cursor::new(&torn[..]), "t").unwrap_err();
        assert!(matches!(err, ArtifactError::Format { .. }), "{err:?}");
        let err = ContainerReader::new(Cursor::new(&bytes[..8]), "t").unwrap_err();
        assert!(matches!(err, ArtifactError::Format { .. }), "{err:?}");
    }

    #[test]
    fn directory_corruption_is_detected() {
        let mut bytes = build_bytes();
        // The directory sits between the last chunk and the 16-byte footer.
        let n = bytes.len();
        bytes[n - 20] ^= 0xFF;
        let err = ContainerReader::new(Cursor::new(&bytes[..]), "t").unwrap_err();
        match err {
            ArtifactError::Corrupt { chunk, .. } => assert_eq!(chunk, "directory"),
            other => panic!("expected directory Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut bytes = build_bytes();
        bytes[4] = 99;
        let err = ContainerReader::new(Cursor::new(&bytes[..]), "t").unwrap_err();
        assert!(
            matches!(err, ArtifactError::Version { found: 99, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn incremental_crc_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut c = Crc32::default();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn atomic_write_leaves_no_temp_behind() {
        let dir = std::env::temp_dir().join("specfem_container_atomic");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.sfcn");
        let bytes = write_container_atomic(&path, *b"TEST", 1, |w| w.chunk("x", b"abc")).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), bytes);
        assert!(!dir.join("a.sfcn.tmp").exists());
        let mut r = ContainerReader::open(&path).unwrap();
        assert_eq!(r.chunk("x").unwrap(), b"abc");
        let _ = fs::remove_dir_all(&dir);
    }
}
