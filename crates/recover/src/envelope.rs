//! The binary checkpoint envelope: the bytes of one stored generation.
//!
//! | offset   | bytes | field                                                   |
//! |----------|-------|---------------------------------------------------------|
//! | 0        | 8     | magic `LRACKPT\0`                                       |
//! | 8        | 4     | format version, `u32` LE ([`CHECKPOINT_VERSION`])       |
//! | 12       | 4     | header length `H`, `u32` LE                             |
//! | 16       | `H`   | header, JSON text (below)                               |
//! | 16 + `H` | Σ     | sections, back to back in table order                   |
//! | end − 12 | 8     | total envelope length, `u64` LE                         |
//! | end − 4  | 4     | CRC-32 of every preceding byte, `u32` LE                |
//!
//! The header is the only text and stays small whatever the state
//! holds:
//!
//! ```json
//! {"kind":"lu_crtp","generation":7,"iteration":7,
//!  "state":{"m":1200,"n":1200,"rank":224,"indicator":0.0173},
//!  "sections":[{"name":"s.colptr","type":"u32","count":977},
//!              {"name":"s.values","type":"f64","count":411213}]}
//! ```
//!
//! `state` is the checkpoint's scalar loop state; every bulk array is a
//! *section* of raw little-endian words — `f64` through `to_le_bytes`
//! (bitwise exact by construction), indices as `u32` through a checked
//! conversion whose failure fails the save instead of truncating. The
//! trailer's length catches truncation and appended bytes, its CRC
//! everything else, so a generation is validated from its own bytes
//! alone and shares none with its neighbours.

use lra_obs::crc::crc32;
use lra_obs::Json;

/// Envelope format version written by this build. Earlier builds wrote
/// JSON text (versions 1 and 2, no magic); those fail validation here.
pub const CHECKPOINT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"LRACKPT\0";
/// Magic + version + header length before the header, length + CRC
/// after the sections.
const FRAME_BYTES: usize = 16 + 12;

/// Collects a checkpoint's bulk arrays as raw little-endian sections.
#[derive(Default)]
pub struct SectionWriter {
    table: Vec<Json>,
    body: Vec<u8>,
}

impl SectionWriter {
    /// Append `xs` as the `f64` section `name`.
    pub fn f64s(&mut self, name: &str, xs: impl IntoIterator<Item = f64>) {
        let start = self.body.len();
        for x in xs {
            self.body.extend_from_slice(&x.to_le_bytes());
        }
        self.close(name, "f64", (self.body.len() - start) / 8);
    }

    /// Append `xs` as the `u32` section `name`; an index that does not
    /// fit fails the save.
    pub fn indices(
        &mut self,
        name: &str,
        xs: impl IntoIterator<Item = usize>,
    ) -> Result<(), String> {
        let start = self.body.len();
        for x in xs {
            let word = u32::try_from(x)
                .map_err(|_| format!("{name}: index {x} does not fit the envelope's u32"))?;
            self.body.extend_from_slice(&word.to_le_bytes());
        }
        self.close(name, "u32", (self.body.len() - start) / 4);
        Ok(())
    }

    fn close(&mut self, name: &str, ty: &str, count: usize) {
        self.table.push(lra_obs::json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("type", Json::Str(ty.to_string())),
            ("count", Json::Num(count as f64)),
        ]));
    }

    /// Frame the collected sections and `state` as one envelope.
    pub(crate) fn seal(
        self,
        kind: &str,
        generation: u64,
        iteration: usize,
        state: Json,
    ) -> Result<Vec<u8>, String> {
        let header = lra_obs::json::obj(vec![
            ("kind", Json::Str(kind.to_string())),
            ("generation", Json::Num(generation as f64)),
            ("iteration", Json::Num(iteration as f64)),
            ("state", state),
            ("sections", Json::Arr(self.table)),
        ])
        .to_string();
        let header_len = u32::try_from(header.len())
            .map_err(|_| format!("checkpoint header of {} bytes", header.len()))?;
        let total = FRAME_BYTES + header.len() + self.body.len();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&header_len.to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&(total as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        Ok(out)
    }
}

/// The sections of one validated envelope, by name.
pub struct SectionReader<'a> {
    /// Name, element width in bytes, data.
    sections: Vec<(String, usize, &'a [u8])>,
}

impl SectionReader<'_> {
    fn words(&self, name: &str, width: usize) -> Result<std::slice::ChunksExact<'_, u8>, String> {
        match self.sections.iter().find(|(n, ..)| n == name) {
            Some((_, w, data)) if *w == width => Ok(data.chunks_exact(width)),
            Some(_) => Err(format!("section {name} does not hold {width}-byte words")),
            None => Err(format!("missing section {name}")),
        }
    }

    /// The `f64` section `name`.
    pub fn f64s(&self, name: &str) -> Result<Vec<f64>, String> {
        let words = self.words(name, 8)?;
        Ok(words
            .map(|w| f64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// The `u32` section `name`, widened back to indices.
    pub fn indices(&self, name: &str) -> Result<Vec<usize>, String> {
        let words = self.words(name, 4)?;
        Ok(words
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")) as usize)
            .collect())
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("four bytes"))
}

/// Validate `bytes` and return the parsed header with the sections its
/// table describes. Everything stored is outside input: nothing is
/// trusted before the frame, the length and the CRC have checked out,
/// the table must tile the section bytes exactly, and the error says
/// what failed.
pub(crate) fn open(bytes: &[u8]) -> Result<(Json, SectionReader<'_>), String> {
    if bytes.len() < FRAME_BYTES || !bytes.starts_with(MAGIC) {
        return Err(
            "unsupported checkpoint format: no binary envelope magic (text envelope of an \
             earlier build, or a torn write)"
                .to_string(),
        );
    }
    let version = le_u32(&bytes[8..12]);
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "unsupported checkpoint format version {version} (this build reads {CHECKPOINT_VERSION})"
        ));
    }
    let (covered, crc) = bytes.split_at(bytes.len() - 4);
    let (framed, stored_len) = covered.split_at(covered.len() - 8);
    let stored_len = u64::from_le_bytes(stored_len.try_into().expect("eight bytes"));
    if stored_len != bytes.len() as u64 {
        return Err(format!(
            "length mismatch: envelope says {stored_len} bytes, {} stored",
            bytes.len()
        ));
    }
    let (stored, computed) = (le_u32(crc), crc32(covered));
    if stored != computed {
        return Err(format!("crc mismatch: stored {stored}, got {computed}"));
    }
    let header_len = le_u32(&framed[12..16]) as usize;
    let body = &framed[16..];
    if header_len > body.len() {
        return Err(format!("header length {header_len} exceeds the envelope"));
    }
    let (header, mut rest) = body.split_at(header_len);
    let header = std::str::from_utf8(header).map_err(|e| format!("header: {e}"))?;
    let header = Json::parse(header).map_err(|e| format!("header: {e}"))?;

    let table = header.get("sections").and_then(Json::as_arr);
    let mut sections = Vec::new();
    for entry in table.ok_or("missing section table")? {
        let field = |key| entry.get(key).and_then(Json::as_str);
        let count = entry.get("count").and_then(Json::as_usize);
        let (Some(name), Some(ty), Some(count)) = (field("name"), field("type"), count) else {
            return Err("malformed section table entry".to_string());
        };
        let width = match ty {
            "u32" => 4,
            "f64" => 8,
            other => return Err(format!("section {name}: unknown element type {other:?}")),
        };
        let len = count.checked_mul(width).filter(|&len| len <= rest.len());
        let (data, tail) = rest.split_at(len.ok_or_else(|| format!("section {name} overruns"))?);
        sections.push((name.to_string(), width, data));
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(format!("{} bytes outside every section", rest.len()));
    }
    Ok((header, SectionReader { sections }))
}

/// Validate `bytes` and return its parsed header (`kind`, `generation`,
/// `iteration`, `state`, `sections`) — what tools and size pins read
/// without decoding the state.
pub fn envelope_header(bytes: &[u8]) -> Result<Json, String> {
    open(bytes).map(|(header, _)| header)
}
