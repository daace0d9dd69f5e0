//! Checkpoint persistence: checksummed generational envelopes.
//!
//! A [`Checkpoint`] is an algorithm-defined snapshot of iteration state.
//! The store frames it as one binary envelope (`envelope.rs` has the
//! layout): a small JSON header with the scalar loop state and a
//! section table, every bulk array as raw little-endian words, then the
//! total length and a CRC-32 over every preceding byte. Section `f64`s
//! travel as their own bits, exact by construction; the few `f64`
//! scalars in the header rely on [`Json`]'s shortest round-trip
//! printing, exact when finite. Resuming reproduces the uninterrupted
//! run bit for bit (same rank count; the reduction tree follows `np`).
//!
//! A [`CheckpointStore`] holds a short window of *generations* (default
//! [`DEFAULT_RETENTION`]) rather than a single latest snapshot. Each is
//! one self-contained envelope, validated from its own bytes alone: no
//! generation references another's, so damage to one never reaches its
//! neighbours. At load time the store scans generations newest-first
//! and reads one only after every newer one failed; a generation that
//! is torn, truncated, bit-flipped, or otherwise fails validation is
//! skipped with a [`RecoveryEvent::CorruptCheckpoint`] and the scan
//! *rolls back* to the next older generation
//! ([`RecoveryEvent::Rollback`]). The JSON text envelopes of earlier
//! builds (version 1: a single file at the base path; version 2:
//! generation files) are outside input of an unsupported format,
//! skipped the same way and never decoded.
//!
//! The on-disk variant is crash-safe: a save writes a unique
//! per-process temporary file, fsyncs it, atomically renames it to
//! `ckpt.<gen>.json`, and fsyncs the parent directory so the rename
//! itself survives power loss. Old generations beyond the retention
//! window are pruned after each successful publish.
//!
//! For fault-space exploration a store can carry a
//! [`StorageFaultPlan`](crate::StorageFaultPlan) injecting torn writes,
//! bit flips, ENOSPC, crash-before-rename, and stale reads at chosen
//! save/load indices — deterministic and replayable, mirroring
//! `lra-comm`'s chaos `FaultPlan`.

use crate::envelope::{self, SectionReader, SectionWriter};
use crate::events::{record_event, RecoveryEvent};
use crate::fault::{record_injection, StorageFaultKind, StorageFaultPlan};
use lra_obs::Json;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many generations a store keeps by default. Three survives the
/// worst single-fault case (newest torn by a crash mid-write, the one
/// before it suspect) with one known-good snapshot to spare.
pub const DEFAULT_RETENTION: usize = 3;

/// A resumable snapshot of an iteration-structured algorithm: the full
/// loop state, everything needed to continue from `iteration() + 1` as
/// if the run had never stopped.
pub trait Checkpoint: Sized {
    /// Stable snapshot-kind discriminator (e.g. `"lu_crtp"`); a store
    /// refuses to load a snapshot of the wrong kind.
    const KIND: &'static str;

    /// The last completed iteration this snapshot covers (1-based).
    fn iteration(&self) -> usize;

    /// Write every bulk array as a section and return the scalar loop
    /// state for the envelope header (the store adds `kind` /
    /// `generation` / `iteration` and the frame around both).
    fn encode(&self, sections: &mut SectionWriter) -> Result<Json, String>;

    /// Rebuild the loop state from what [`Checkpoint::encode`] wrote.
    fn decode(state: &Json, sections: &SectionReader<'_>) -> Result<Self, String>;
}

enum Inner {
    /// Published generations, oldest first; the bytes are immutable and
    /// shared with whoever is reading them.
    Memory(Mutex<Vec<(u64, Arc<Vec<u8>>)>>),
    /// Base path; generations live beside it as `<stem>.<gen>.<ext>`.
    Disk(PathBuf),
}

/// Where one generation's bytes are; nothing is read or copied until a
/// load gets to it.
enum Slot {
    Memory(Arc<Vec<u8>>),
    File(PathBuf),
}

impl Slot {
    /// The stored bytes, exactly as stored (damage must reach `decode`,
    /// which classifies it). `None`: the file was pruned between the
    /// scan and the read — a generation that no longer exists, not an
    /// error.
    fn read(&self) -> Result<Option<Cow<'_, [u8]>>, String> {
        match self {
            Slot::Memory(bytes) => Ok(Some(Cow::Borrowed(bytes.as_slice()))),
            Slot::File(path) => match std::fs::read(path) {
                Ok(bytes) => Ok(Some(Cow::Owned(bytes))),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(format!("checkpoint read {}: {e}", path.display())),
            },
        }
    }
}

/// Generational persistence for one algorithm run's checkpoints.
pub struct CheckpointStore {
    inner: Inner,
    retention: usize,
    faults: StorageFaultPlan,
    saves: AtomicU64,
    loads: AtomicU64,
}

/// Why one generation failed to decode.
enum Decode {
    /// The stored bytes are damaged (torn, flipped, truncated,
    /// unparseable) — skip this generation and roll back.
    Corrupt(String),
    /// The document is intact but the caller asked for the wrong thing
    /// (kind mismatch) — a programming error, not storage damage.
    Hard(String),
}

impl CheckpointStore {
    fn new(inner: Inner) -> Self {
        CheckpointStore {
            inner,
            retention: DEFAULT_RETENTION,
            faults: StorageFaultPlan::new(),
            saves: AtomicU64::new(0),
            loads: AtomicU64::new(0),
        }
    }

    /// A store living in this process's memory.
    pub fn in_memory() -> Self {
        Self::new(Inner::Memory(Mutex::new(Vec::new())))
    }

    /// A store persisting generations beside `path`: a base path of
    /// `dir/ckpt.json` publishes `dir/ckpt.1.json`, `dir/ckpt.2.json`,
    /// … A file at exactly `path` is where the earliest builds kept
    /// their single snapshot: it is scanned last, as generation 0, and
    /// removed by [`CheckpointStore::clear`].
    pub fn on_disk(path: impl Into<PathBuf>) -> Self {
        Self::new(Inner::Disk(path.into()))
    }

    /// Keep up to `n` generations (min 1) instead of
    /// [`DEFAULT_RETENTION`].
    pub fn with_retention(mut self, n: usize) -> Self {
        self.retention = n.max(1);
        self
    }

    /// Inject storage faults from `plan` (indexed by this store's save
    /// and load counters).
    pub fn with_faults(mut self, plan: StorageFaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Persist `ckpt` as a new generation and record a
    /// [`RecoveryEvent::Checkpoint`]. Fails on real I/O errors (and on
    /// injected ENOSPC); previously published generations are never
    /// touched by a failed save.
    pub fn save<C: Checkpoint>(&self, ckpt: &C) -> Result<(), String> {
        let save_index = self.saves.fetch_add(1, Ordering::Relaxed);
        if self.faults.enospc_for(save_index) {
            record_injection(StorageFaultKind::Enospc);
            return Err(format!(
                "checkpoint write (save #{save_index}): no space left on device [injected]"
            ));
        }

        let generation = self.next_generation()?;
        let mut sections = SectionWriter::default();
        let state = ckpt.encode(&mut sections)?;
        let mut bytes = sections.seal(C::KIND, generation, ckpt.iteration(), state)?;

        if let Some(keep) = self.faults.torn_for(save_index) {
            record_injection(StorageFaultKind::TornWrite);
            bytes.truncate((keep % bytes.len().max(1) as u64) as usize);
        }
        if let Some(bit) = self.faults.flip_for(save_index) {
            if !bytes.is_empty() {
                record_injection(StorageFaultKind::BitFlip);
                let bit = bit % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        let crash = self.faults.crash_for(save_index);
        if crash {
            record_injection(StorageFaultKind::CrashBeforeRename);
        }

        match &self.inner {
            Inner::Memory(slot) => {
                if !crash {
                    let mut gens = slot.lock().unwrap_or_else(|p| p.into_inner());
                    gens.push((generation, Arc::new(bytes)));
                    while gens.len() > self.retention {
                        gens.remove(0);
                    }
                }
            }
            Inner::Disk(base) => {
                let tmp = tmp_path(base, generation, save_index);
                write_synced(&tmp, &bytes)?;
                // A crash is the "process" dying after the tmp fsync
                // but before the publish: the generation never becomes
                // visible and the tmp file is stranded for `clear`.
                if !crash {
                    let target = generation_path(base, generation);
                    std::fs::rename(&tmp, &target)
                        .map_err(|e| format!("checkpoint rename to {}: {e}", target.display()))?;
                    sync_parent_dir(base);
                    self.prune(base);
                }
            }
        }

        record_event(&RecoveryEvent::Checkpoint {
            kind: C::KIND,
            iteration: ckpt.iteration(),
        });
        Ok(())
    }

    /// Load the most recent *valid* snapshot, scanning generations
    /// newest-first. Corrupt generations (torn, truncated, flipped,
    /// CRC-mismatched, unparseable state) are skipped with a
    /// [`RecoveryEvent::CorruptCheckpoint`]; succeeding on an older
    /// generation records a [`RecoveryEvent::Rollback`].
    ///
    /// Returns `Ok(None)` when no snapshot exists at all, and `Err` on
    /// a kind mismatch (caller bug), when every existing generation is
    /// corrupt, or on a real I/O failure (permissions, media errors —
    /// *not* "file not found", which is a normal fresh start).
    pub fn load<C: Checkpoint>(&self) -> Result<Option<C>, String> {
        let load_index = self.loads.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots()?;
        let Some(&(newest, _)) = slots.first() else {
            return Ok(None);
        };
        if self.faults.stale_for(load_index) {
            record_injection(StorageFaultKind::StaleRead);
            slots.remove(0);
        }

        let mut last_reason = None;
        for (generation, slot) in slots {
            let Some(bytes) = slot.read()? else { continue };
            match decode::<C>(&bytes, generation) {
                Ok(ckpt) => {
                    if last_reason.is_some() {
                        record_event(&RecoveryEvent::Rollback {
                            from: newest,
                            to: generation,
                        });
                    }
                    return Ok(Some(ckpt));
                }
                Err(Decode::Corrupt(reason)) => {
                    record_event(&RecoveryEvent::CorruptCheckpoint {
                        generation,
                        reason: reason.clone(),
                    });
                    last_reason = Some(reason);
                }
                Err(Decode::Hard(e)) => return Err(e),
            }
        }
        match last_reason {
            // Nothing left to read (stale-only store, or every file
            // pruned under the scan): a normal fresh start.
            None => Ok(None),
            Some(reason) => Err(format!(
                "no valid checkpoint generation (newest was {newest}): {reason}"
            )),
        }
    }

    /// Drop every stored generation, a base-path file of an earlier
    /// build, and any stranded temporary files (e.g. after a run
    /// completes, so a later run cannot accidentally resume stale state).
    pub fn clear(&self) {
        match &self.inner {
            Inner::Memory(slot) => {
                slot.lock().unwrap_or_else(|p| p.into_inner()).clear();
            }
            Inner::Disk(base) => {
                if let Ok(gens) = disk_generations(base) {
                    for (_, path) in gens {
                        let _ = std::fs::remove_file(path);
                    }
                }
                let _ = std::fs::remove_file(base);
                sweep_tmp_files(base);
            }
        }
    }

    /// Number of save calls issued through this store (the index space
    /// [`StorageFaultPlan`] save faults address).
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Number of load calls issued through this store (the index space
    /// [`StorageFaultPlan`] stale reads address).
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Published generation numbers, oldest first (0 denotes a file at
    /// the base path). Reads ids only, never the envelopes.
    pub fn generations(&self) -> Vec<u64> {
        let slots = self.slots().unwrap_or_default();
        slots.iter().rev().map(|(g, _)| *g).collect()
    }

    /// The bytes of the newest generation, if any. `Ok(None)` means no
    /// snapshot exists; `Err` is a real I/O failure.
    pub fn raw(&self) -> Result<Option<Vec<u8>>, String> {
        match self.slots()?.first() {
            Some((_, slot)) => Ok(slot.read()?.map(Cow::into_owned)),
            None => Ok(None),
        }
    }

    /// Next generation number to publish (1 + the newest existing; a
    /// base-path file counts as generation 0, so the first publish is 1
    /// either way).
    fn next_generation(&self) -> Result<u64, String> {
        Ok(self.slots()?.first().map_or(0, |(g, _)| *g) + 1)
    }

    /// Every stored generation, newest first, unread.
    fn slots(&self) -> Result<Vec<(u64, Slot)>, String> {
        match &self.inner {
            Inner::Memory(slot) => {
                let gens = slot.lock().unwrap_or_else(|p| p.into_inner());
                let shared = gens.iter().rev();
                Ok(shared.map(|(g, b)| (*g, Slot::Memory(b.clone()))).collect())
            }
            Inner::Disk(base) => {
                let files = disk_generations(base)?.into_iter().rev();
                let mut out: Vec<_> = files.map(|(g, path)| (g, Slot::File(path))).collect();
                if base.exists() {
                    out.push((0, Slot::File(base.clone())));
                }
                Ok(out)
            }
        }
    }

    /// Remove generations beyond the retention window (best-effort; a
    /// failed unlink only delays pruning to the next save).
    fn prune(&self, base: &Path) {
        if let Ok(gens) = disk_generations(base) {
            if gens.len() > self.retention {
                let excess = gens.len() - self.retention;
                for (_, path) in gens.into_iter().take(excess) {
                    let _ = std::fs::remove_file(path);
                }
                sync_parent_dir(base);
            }
        }
    }
}

/// Decode one stored generation. `Corrupt` means "skip and roll back";
/// `Hard` means the envelope is fine but the caller is wrong.
fn decode<C: Checkpoint>(bytes: &[u8], generation: u64) -> Result<C, Decode> {
    let (header, sections) = envelope::open(bytes).map_err(Decode::Corrupt)?;
    let stored_gen = header
        .get("generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| Decode::Corrupt("missing generation".into()))?;
    // This build publishes generations from 1 up, so whatever sits in
    // slot 0 (the base path) is out of place and untrusted.
    if stored_gen != generation {
        return Err(Decode::Corrupt(format!(
            "generation mismatch: envelope says {stored_gen}, slot is {generation}"
        )));
    }
    // The CRC covers the kind, so a mismatch here is a genuine
    // cross-load (caller bug), not bit rot.
    let kind = header.get("kind").and_then(Json::as_str).unwrap_or_default();
    if kind != C::KIND {
        return Err(Decode::Hard(format!(
            "checkpoint kind mismatch: stored {kind:?}, expected {:?}",
            C::KIND
        )));
    }
    let state = header.get("state").unwrap_or(&Json::Null);
    C::decode(state, &sections).map_err(Decode::Corrupt)
}

/// `dir/ckpt.json` → `dir/ckpt.<gen>.json`; extensionless bases get
/// `dir/ckpt.<gen>`.
fn generation_path(base: &Path, generation: u64) -> PathBuf {
    let (stem, ext) = split_name(base);
    let name = match ext {
        Some(ext) => format!("{stem}.{generation}.{ext}"),
        None => format!("{stem}.{generation}"),
    };
    base.with_file_name(name)
}

/// Unique per-process temporary name: hidden (never matches the
/// generation scan), disambiguated by pid and a process-wide sequence
/// number so concurrent stores — even two stores on the *same* base
/// path — never collide, and multi-dot base names survive intact.
fn tmp_path(base: &Path, generation: u64, save_index: u64) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let file = file_name(base);
    let pid = std::process::id();
    base.with_file_name(format!(".{file}.{generation}.{pid}-{seq}-{save_index}.tmp"))
}

/// Split a base file name at its last dot: `ckpt.v2.json` → (`ckpt.v2`,
/// `json`). (The old `Path::with_extension` approach collapsed this to
/// `ckpt.tmp`, colliding across stores and mangling multi-dot names.)
fn split_name(base: &Path) -> (String, Option<String>) {
    let name = file_name(base);
    match name.rfind('.') {
        Some(i) if i > 0 => (name[..i].to_string(), Some(name[i + 1..].to_string())),
        _ => (name, None),
    }
}

fn file_name(base: &Path) -> String {
    let name = base.file_name().map(|n| n.to_string_lossy().into_owned());
    name.unwrap_or_else(|| "ckpt".to_string())
}

fn parent_dir(base: &Path) -> PathBuf {
    match base.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Enumerate generation files beside `base`, oldest first. A missing
/// parent directory is an empty store; any other directory-scan failure
/// is a real I/O error.
fn disk_generations(base: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    let dir = parent_dir(base);
    let (stem, ext) = split_name(base);
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("checkpoint scan {}: {e}", dir.display())),
    };
    let prefix = format!("{stem}.");
    let suffix = ext.map(|e| format!(".{e}")).unwrap_or_default();
    let mut gens = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(middle) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(&suffix))
        else {
            continue;
        };
        if let Ok(generation) = middle.parse::<u64>() {
            gens.push((generation, dir.join(name)));
        }
    }
    gens.sort_unstable_by_key(|(g, _)| *g);
    Ok(gens)
}

/// Remove stranded `.{name}.*.tmp` files for `base` (crashed saves).
fn sweep_tmp_files(base: &Path) {
    let dir = parent_dir(base);
    let prefix = format!(".{}.", file_name(base));
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(&prefix) && name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Write `bytes` to `path` and fsync the file, so the rename that
/// follows publishes fully-persisted data.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)
        .map_err(|e| format!("checkpoint write {}: {e}", path.display()))?;
    f.write_all(bytes)
        .map_err(|e| format!("checkpoint write {}: {e}", path.display()))?;
    f.sync_all()
        .map_err(|e| format!("checkpoint fsync {}: {e}", path.display()))?;
    Ok(())
}

/// Fsync the directory containing `base` so a just-published rename
/// survives power loss. Best-effort: not every filesystem supports
/// directory fsync, and a failure here only weakens durability, never
/// correctness.
fn sync_parent_dir(base: &Path) {
    if let Ok(dir) = std::fs::File::open(parent_dir(base)) {
        let _ = dir.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_obs::MetricValue;

    fn counter(name: &str) -> u64 {
        match lra_obs::metrics::global().get(name) {
            Some(MetricValue::Counter(c)) => c,
            _ => 0,
        }
    }

    #[derive(Debug)]
    struct Toy {
        it: usize,
        xs: Vec<f64>,
    }

    impl Checkpoint for Toy {
        const KIND: &'static str = "toy";

        fn iteration(&self) -> usize {
            self.it
        }

        fn encode(&self, sections: &mut SectionWriter) -> Result<Json, String> {
            sections.f64s("xs", self.xs.iter().copied());
            Ok(lra_obs::json::obj(vec![("it", Json::Num(self.it as f64))]))
        }

        fn decode(state: &Json, sections: &SectionReader<'_>) -> Result<Self, String> {
            let it = state.get("it").and_then(Json::as_usize).ok_or("missing it")?;
            let xs = sections.f64s("xs")?;
            Ok(Toy { it, xs })
        }
    }

    /// Another kind; its envelopes carry no sections at all.
    #[derive(Debug)]
    struct OtherKind;

    impl Checkpoint for OtherKind {
        const KIND: &'static str = "other";

        fn iteration(&self) -> usize {
            0
        }

        fn encode(&self, _: &mut SectionWriter) -> Result<Json, String> {
            Ok(Json::Null)
        }

        fn decode(_: &Json, _: &SectionReader<'_>) -> Result<Self, String> {
            Ok(OtherKind)
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lra_recover_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_roundtrip_is_bitwise() {
        let store = CheckpointStore::in_memory();
        assert!(store.load::<Toy>().unwrap().is_none());
        // Values a text format has to work for: subnormal, huge,
        // non-terminating binary fractions, signed zero, and the
        // non-finite ones JSON cannot carry at all.
        let xs = vec![
            0.1,
            -3.5e300,
            f64::MIN_POSITIVE / 4.0,
            1.0 / 3.0,
            -0.0,
            f64::INFINITY,
            f64::NAN,
        ];
        store.save(&Toy { it: 7, xs: xs.clone() }).unwrap();
        let back = store.load::<Toy>().unwrap().unwrap();
        assert_eq!(back.it, 7);
        assert_eq!(back.xs.len(), xs.len());
        for (a, b) in xs.iter().zip(&back.xs) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert_eq!(store.saves(), 1);
        store.clear();
        assert!(store.load::<Toy>().unwrap().is_none());
    }

    #[test]
    fn latest_snapshot_wins() {
        let store = CheckpointStore::in_memory();
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![2.0]);
        assert_eq!(store.saves(), 2);
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let store = CheckpointStore::in_memory();
        store.save(&Toy { it: 1, xs: vec![] }).unwrap();
        let err = store.load::<OtherKind>().unwrap_err();
        assert!(err.contains("kind mismatch"), "{err}");
    }

    #[test]
    fn disk_store_roundtrips_and_clears() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path);
        assert!(store.load::<Toy>().unwrap().is_none());
        store.save(&Toy { it: 3, xs: vec![0.25, 9.0] }).unwrap();
        let back = store.load::<Toy>().unwrap().unwrap();
        assert_eq!(back.xs, vec![0.25, 9.0]);
        store.clear();
        assert!(store.load::<Toy>().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_window_prunes_old_generations() {
        let dir = temp_dir("retention");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path).with_retention(3);
        for it in 1..=5 {
            store.save(&Toy { it, xs: vec![it as f64] }).unwrap();
        }
        assert_eq!(store.generations(), vec![3, 4, 5]);
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![5.0]);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 3, "pruned to the retention window");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_generation_rolls_back() {
        let dir = temp_dir("rollback");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path);
        store.save(&Toy { it: 1, xs: vec![1.5] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.5] }).unwrap();
        // Truncate generation 2 mid-envelope (a torn write at the
        // filesystem level, outside any fault plan).
        let g2 = generation_path(&path, 2);
        let bytes = std::fs::read(&g2).unwrap();
        std::fs::write(&g2, &bytes[..bytes.len() / 2]).unwrap();

        let corrupt0 = counter("recover.corrupt_checkpoint");
        let rollback0 = counter("recover.rollback");
        let back = store.load::<Toy>().unwrap().unwrap();
        assert_eq!(back.xs, vec![1.5], "rolled back to generation 1");
        // The counters are process-global and sibling tests running in
        // parallel skip corrupt generations too: pin the delta from below.
        assert!(counter("recover.corrupt_checkpoint") > corrupt0);
        assert!(counter("recover.rollback") > rollback0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_caught_by_the_crc() {
        let dir = temp_dir("bitflip");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path);
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        // Flip one mantissa bit inside generation 2's `xs` section:
        // every frame field still reads fine, only the CRC objects.
        let g2 = generation_path(&path, 2);
        let mut bytes = std::fs::read(&g2).unwrap();
        let pos = bytes.len() - 12 - 8; // first byte of the last f64
        bytes[pos] ^= 0x01;
        std::fs::write(&g2, &bytes).unwrap();
        let back = store.load::<Toy>().unwrap().unwrap();
        assert_eq!(back.xs, vec![1.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        /// A well-formed "toy" envelope without the section `Toy` needs.
        struct Hollow;
        impl Checkpoint for Hollow {
            const KIND: &'static str = Toy::KIND;
            fn iteration(&self) -> usize {
                4
            }
            fn encode(&self, _: &mut SectionWriter) -> Result<Json, String> {
                Ok(lra_obs::json::obj(vec![("it", Json::Num(4.0))]))
            }
            fn decode(_: &Json, _: &SectionReader<'_>) -> Result<Self, String> {
                unreachable!("only ever saved")
            }
        }
        // An inconsistent state decodes as Corrupt; with no older
        // generation to fall back to, load must surface the reason,
        // not panic or silently return None.
        let store = CheckpointStore::in_memory();
        store.save(&Hollow).unwrap();
        let err = store.load::<Toy>().unwrap_err();
        assert!(err.contains("missing section xs"), "{err}");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_index_beyond_u32_fails_the_save_and_preserves_history() {
        struct Wide(usize);
        impl Checkpoint for Wide {
            const KIND: &'static str = "wide";
            fn iteration(&self) -> usize {
                1
            }
            fn encode(&self, sections: &mut SectionWriter) -> Result<Json, String> {
                sections.indices("ids", [7, self.0])?;
                Ok(Json::Null)
            }
            fn decode(_: &Json, _: &SectionReader<'_>) -> Result<Self, String> {
                unreachable!("only ever saved")
            }
        }
        let store = CheckpointStore::in_memory();
        store.save(&Wide(u32::MAX as usize)).unwrap();
        let err = store.save(&Wide(u32::MAX as usize + 1)).unwrap_err();
        assert!(err.contains("does not fit"), "{err}");
        assert_eq!(store.generations(), vec![1], "nothing truncated, nothing published");
    }

    #[test]
    fn real_io_errors_surface_instead_of_fresh_start() {
        let dir = temp_dir("ioerr");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path);
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        // Replace generation 1 with a *directory*: reading it fails
        // with a real I/O error (EISDIR), which must become Err — a
        // silent fresh start here would drop committed work.
        let g1 = generation_path(&path, 1);
        std::fs::remove_file(&g1).unwrap();
        std::fs::create_dir(&g1).unwrap();
        let err = store.load::<Toy>().unwrap_err();
        assert!(err.contains("checkpoint read"), "{err}");
        assert!(store.raw().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_dot_base_names_do_not_collide() {
        let dir = temp_dir("multidot");
        let a = CheckpointStore::on_disk(dir.join("a.json"));
        let b = CheckpointStore::on_disk(dir.join("a.b.json"));
        a.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        b.save(&Toy { it: 1, xs: vec![-1.0] }).unwrap();
        a.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        b.save(&Toy { it: 2, xs: vec![-2.0] }).unwrap();
        assert_eq!(a.load::<Toy>().unwrap().unwrap().xs, vec![2.0]);
        assert_eq!(b.load::<Toy>().unwrap().unwrap().xs, vec![-2.0]);
        assert_eq!(a.generations(), vec![1, 2], "b's files are not a's");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_enospc_fails_the_save_and_preserves_history() {
        let store = CheckpointStore::in_memory()
            .with_faults(StorageFaultPlan::new().enospc_at(1));
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        let err = store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap_err();
        assert!(err.contains("no space left"), "{err}");
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![1.0]);
        // The counter advanced past the failed save; the next save works.
        store.save(&Toy { it: 3, xs: vec![3.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![3.0]);
    }

    #[test]
    fn injected_torn_write_rolls_back_at_load() {
        let store = CheckpointStore::in_memory()
            .with_faults(StorageFaultPlan::new().torn_write_at(1, 30));
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![1.0]);
    }

    #[test]
    fn injected_crash_before_rename_strands_a_tmp_file() {
        let dir = temp_dir("crash");
        let path = dir.join("ckpt.json");
        let store = CheckpointStore::on_disk(&path)
            .with_faults(StorageFaultPlan::new().crash_before_rename_at(1));
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap(); // "crashes"
        assert_eq!(store.generations(), vec![1], "generation 2 never published");
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![1.0]);
        let tmps = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(tmps, 1, "the crashed save's tmp file is stranded");
        store.clear();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "clear sweeps tmps");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_stale_read_serves_the_previous_generation() {
        let store = CheckpointStore::in_memory()
            .with_faults(StorageFaultPlan::new().stale_read_at(1));
        store.save(&Toy { it: 1, xs: vec![1.0] }).unwrap();
        store.save(&Toy { it: 2, xs: vec![2.0] }).unwrap();
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![2.0]);
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![1.0], "load #1 is stale");
        assert_eq!(store.load::<Toy>().unwrap().unwrap().xs, vec![2.0]);
        assert_eq!(store.loads(), 3);
    }
}
