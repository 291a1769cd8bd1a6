//! Crash-safe persistence for the verdict cache.
//!
//! An append-only log of definitive answers, compacted in place through
//! an atomic rename. The durability contract is exactly what the chaos
//! harness asserts:
//!
//! * **`kill -9` loses at most the in-flight tail.** Every record is
//!   length-prefixed and checksummed; replay stops at the first record
//!   that is short or fails its checksum and truncates the file there, so
//!   a torn final write costs that one record, never the log. A whole
//!   record (length and checksum intact) that the grammar rejects, as a
//!   newer writer's could be, is skipped and counted, never served;
//!   replay goes on at the next record and the next compaction drops it.
//! * **A wrong verdict is never served.** Records store the *full*
//!   canonical text (not a hash) next to the answer; replay re-installs
//!   entries keyed on that text, and the per-record FNV-1a detects
//!   corruption. Degraded answers are refused at append time and at
//!   replay time, so nothing budget-dependent can ever be resurrected as
//!   truth.
//! * **Compaction is atomic.** Every `snapshot_every` appends the live
//!   definitive set is rewritten to `journal.log.tmp` and renamed over
//!   `journal.log` — a crash during compaction leaves either the old log
//!   or the new one, both valid.
//!
//! # Record format
//!
//! ```text
//! [u32 BE payload length][u64 BE FNV-1a of payload][payload]
//! ```
//!
//! The payload is text: `key=value` header lines (group, answer fields,
//! and the `engine=` that produced the answer), a blank line, then the
//! canonical program text, read by the wire's text-frame grammar
//! ([`crate::protocol`]). A record without an `engine=` line, as written
//! before the field existed, replays with no engine.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::cache::{CachedAnswer, KindGroup};
use crate::canon::fnv1a;
use crate::protocol::{push_engine_line, push_race_lines, Headers};
#[cfg(test)]
use crate::protocol::{Engine, RaceCoord};

/// Hard cap on one journal record (canonical text + headers). Matches the
/// frame cap's order of magnitude; a record above this is corruption.
const MAX_RECORD_BYTES: usize = 4 << 20;

/// One persisted verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Which exploration family the answer belongs to.
    pub group: KindGroup,
    /// The canonical text — the cache key, stored verbatim.
    pub key: String,
    /// The definitive answer.
    pub answer: CachedAnswer,
}

/// What replay found on startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records successfully replayed.
    pub replayed: usize,
    /// Whole records (length and checksum intact) the grammar rejected:
    /// skipped, not served, and left for the next compaction to drop.
    pub skipped: usize,
    /// Bytes truncated off a torn or corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
}

/// The append-only verdict journal.
pub struct Journal {
    file: File,
    path: PathBuf,
    appends_since_compaction: usize,
    snapshot_every: usize,
}

impl Journal {
    /// Opens (or creates) `dir/journal.log`, replaying every intact
    /// record, skipping unreadable whole ones and truncating any torn
    /// tail. Returns the journal, the
    /// replayed records, and a report of what recovery did.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (a *corrupt* log is not an error —
    /// it is truncated and reported).
    pub fn open(
        dir: &Path,
        snapshot_every: usize,
    ) -> io::Result<(Journal, Vec<JournalRecord>, ReplayReport)> {
        fs::create_dir_all(dir)?;
        let path = dir.join("journal.log");
        let mut records = Vec::new();
        let mut report = ReplayReport::default();

        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut offset = 0usize;
        loop {
            match decode_record(&bytes[offset.min(bytes.len())..]) {
                DecodeOutcome::Record(rec, consumed) => {
                    // Refuse anything non-definitive even if the file
                    // claims it (hand-edited or adversarial logs).
                    if rec.answer.is_definitive() {
                        records.push(rec);
                        report.replayed += 1;
                    }
                    offset += consumed;
                }
                DecodeOutcome::Unreadable(consumed) => {
                    report.skipped += 1;
                    offset += consumed;
                }
                DecodeOutcome::End => break,
                DecodeOutcome::Torn => {
                    report.truncated_bytes = (bytes.len() - offset) as u64;
                    break;
                }
            }
        }

        if report.truncated_bytes > 0 {
            // Drop the torn tail so the next append starts at a record
            // boundary.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(offset as u64)?;
        }

        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            Journal { file, path, appends_since_compaction: 0, snapshot_every },
            records,
            report,
        ))
    }

    /// Appends one record: [`Journal::append_batch`] of one.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<bool> {
        self.append_batch(std::iter::once(record))
    }

    /// Appends a whole batch of definitive answers with **one** buffered
    /// write and **one** flush — the per-append flush is the journal's
    /// dominant cost, and a batch frame can legitimately produce hundreds
    /// of fresh verdicts. Non-definitive answers are silently skipped —
    /// persisting them could replay a budget artifact as truth.
    ///
    /// Returns `true` when the caller should compact (see
    /// [`Journal::compact`]): the append counter reached the snapshot
    /// interval.
    ///
    /// # Errors
    ///
    /// Propagates write errors. On error nothing past the last durable
    /// flush is guaranteed — the same contract as a torn single append.
    pub fn append_batch<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a JournalRecord>,
    ) -> io::Result<bool> {
        let mut buf = Vec::new();
        let mut appended = 0usize;
        for record in records {
            if !record.answer.is_definitive() {
                continue;
            }
            buf.extend_from_slice(&encode_record(record));
            appended += 1;
        }
        if appended == 0 {
            return Ok(false);
        }
        self.file.write_all(&buf)?;
        self.file.flush()?;
        self.appends_since_compaction += appended;
        Ok(self.snapshot_every > 0 && self.appends_since_compaction >= self.snapshot_every)
    }

    /// Rewrites the log to exactly `records` (the live definitive set)
    /// via write-to-temp + atomic rename, then resets the append counter.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the old log is still valid.
    pub fn compact<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a JournalRecord>,
    ) -> io::Result<()> {
        let tmp_path = self.path.with_extension("log.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            for rec in records {
                tmp.write_all(&encode_record(rec))?;
            }
            tmp.flush()?;
        }
        fs::rename(&tmp_path, &self.path)?;
        self.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        self.appends_since_compaction = 0;
        Ok(())
    }

    /// The log's path (the chaos harness corrupts it deliberately).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let mut payload = String::new();
    payload.push_str(&format!("group={}\n", record.group.as_str()));
    match &record.answer {
        CachedAnswer::Explore { racy, races, steps, definitive, .. } => {
            debug_assert!(*definitive);
            payload.push_str("answer=explore\n");
            payload.push_str(&format!("racy={racy}\n"));
            payload.push_str(&format!("steps={steps}\n"));
            push_engine_line(&mut payload, record.answer.engine());
            payload.push_str(&format!("races={}\n", races.len()));
            push_race_lines(&mut payload, races);
        }
        CachedAnswer::Sc { outcomes, steps, complete, .. } => {
            debug_assert!(*complete);
            payload.push_str("answer=sc\n");
            payload.push_str(&format!("outcomes={outcomes}\n"));
            payload.push_str(&format!("steps={steps}\n"));
            push_engine_line(&mut payload, record.answer.engine());
        }
    }
    payload.push('\n');
    payload.push_str(&record.key);

    let bytes = payload.into_bytes();
    let mut out = Vec::with_capacity(bytes.len() + 12);
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a(&bytes).to_be_bytes());
    out.extend_from_slice(&bytes);
    out
}

enum DecodeOutcome {
    /// A record and the bytes it consumed.
    Record(JournalRecord, usize),
    /// A whole record whose length and checksum hold but which the
    /// grammar rejects, and the bytes it spans: skip it.
    Unreadable(usize),
    /// Exactly at end of input.
    End,
    /// A short or corrupt record: stop and truncate here.
    Torn,
}

fn decode_record(bytes: &[u8]) -> DecodeOutcome {
    if bytes.is_empty() {
        return DecodeOutcome::End;
    }
    if bytes.len() < 12 {
        return DecodeOutcome::Torn;
    }
    let len = u32::from_be_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_BYTES || bytes.len() < 12 + len {
        return DecodeOutcome::Torn;
    }
    let checksum = u64::from_be_bytes(bytes[4..12].try_into().expect("8 bytes"));
    let payload = &bytes[12..12 + len];
    if fnv1a(payload) != checksum {
        return DecodeOutcome::Torn;
    }
    match parse_payload(payload) {
        Some(rec) => DecodeOutcome::Record(rec, 12 + len),
        None => DecodeOutcome::Unreadable(12 + len),
    }
}

/// Reads a record's payload with the wire's text-frame grammar: a
/// header block, a blank line, and the canonical text as the body.
pub(crate) fn parse_payload(payload: &[u8]) -> Option<JournalRecord> {
    let h = Headers::parse(payload).ok()?;
    let key = std::str::from_utf8(h.body).ok().filter(|key| !key.is_empty())?.to_string();
    let group = KindGroup::parse_token(h.get("group")?)?;
    let steps = h.num("steps").ok()?;
    let engine = h.engine().ok()?;
    let answer = match h.get("answer")? {
        "explore" => CachedAnswer::Explore {
            racy: h.get("racy")? == "true",
            races: h.races?,
            steps,
            definitive: true,
            reason: None,
            engine,
        },
        "sc" => CachedAnswer::Sc {
            outcomes: h.num("outcomes").ok()?,
            complete: true,
            reason: None,
            steps,
            engine,
        },
        _ => return None,
    };
    Some(JournalRecord { group, key, answer })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wo-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn racy_record(key: &str) -> JournalRecord {
        JournalRecord {
            group: KindGroup::Explore,
            key: key.to_string(),
            answer: CachedAnswer::Explore {
                racy: true,
                races: vec![RaceCoord {
                    first_thread: 0,
                    first_seq: 1,
                    second_thread: 1,
                    second_seq: 0,
                    loc: 3,
                }],
                steps: 42,
                definitive: true,
                reason: None,
                engine: Some(Engine::Explorer),
            },
        }
    }

    fn sc_record(key: &str) -> JournalRecord {
        JournalRecord {
            group: KindGroup::Sc,
            key: key.to_string(),
            answer: CachedAnswer::Sc {
                outcomes: 4,
                complete: true,
                reason: None,
                steps: 99,
                engine: Some(Engine::Axiom),
            },
        }
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = tmpdir("replay");
        let recs = vec![
            racy_record("P0:\n  0: W(m0) := 1\nP1:\n  0: r0 := R(m0)\n"),
            sc_record("P0:\n  0: W(m0) := 1\n"),
        ];
        {
            let (mut j, replayed, report) = Journal::open(&dir, 100).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(report, ReplayReport::default());
            for r in &recs {
                j.append(r).unwrap();
            }
        }
        let (_j, replayed, report) = Journal::open(&dir, 100).unwrap();
        assert_eq!(replayed, recs);
        assert_eq!(report.replayed, 2);
        assert_eq!(report.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmpdir("torn");
        {
            let (mut j, _, _) = Journal::open(&dir, 100).unwrap();
            j.append(&racy_record("prog-a\nbody\n")).unwrap();
            j.append(&sc_record("prog-b\nbody\n")).unwrap();
        }
        // Tear the last record mid-payload, as kill -9 during a write
        // would.
        let path = dir.join("journal.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let (mut j, replayed, report) = Journal::open(&dir, 100).unwrap();
        assert_eq!(replayed.len(), 1, "first record survives");
        assert_eq!(replayed[0].key, "prog-a\nbody\n");
        assert!(report.truncated_bytes > 0);

        // The log is writable again at a clean boundary.
        j.append(&sc_record("prog-c\n")).unwrap();
        drop(j);
        let (_j, replayed, report) = Journal::open(&dir, 100).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(report.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_the_bad_record() {
        let dir = tmpdir("corrupt");
        {
            let (mut j, _, _) = Journal::open(&dir, 100).unwrap();
            j.append(&racy_record("first\n")).unwrap();
            j.append(&sc_record("second\n")).unwrap();
        }
        let path = dir.join("journal.log");
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (_j, replayed, report) = Journal::open(&dir, 100).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key, "first\n");
        assert!(report.truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_signals_compaction_and_compact_rewrites_atomically() {
        let dir = tmpdir("compact");
        let (mut j, _, _) = Journal::open(&dir, 2).unwrap();
        assert!(!j.append(&racy_record("a\n")).unwrap());
        assert!(j.append(&racy_record("b\n")).unwrap(), "interval reached");
        // Compact to just one live record (as if 'a' were superseded).
        let live = vec![sc_record("only\n")];
        j.compact(&live).unwrap();
        drop(j);
        let (_j, replayed, _) = Journal::open(&dir, 2).unwrap();
        assert_eq!(replayed, live);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_batch_is_one_flush_and_replays_identically() {
        let dir = tmpdir("batch");
        let recs = vec![
            racy_record("batch-a\nbody\n"),
            sc_record("batch-b\nbody\n"),
            racy_record("batch-c\nbody\n"),
        ];
        let degraded = JournalRecord {
            group: KindGroup::Explore,
            key: "batch-d\n".into(),
            answer: CachedAnswer::Explore {
                racy: false,
                races: vec![],
                steps: 5,
                definitive: false,
                reason: Some("deadline".into()),
                engine: Some(Engine::Explorer),
            },
        };
        {
            let (mut j, _, _) = Journal::open(&dir, 3).unwrap();
            let mut all: Vec<&JournalRecord> = recs.iter().collect();
            all.push(&degraded);
            assert!(j.append_batch(all).unwrap(), "3 appends reach the interval of 3");
            assert!(!j.append_batch(std::iter::empty()).unwrap());
        }
        let (_j, replayed, report) = Journal::open(&dir, 3).unwrap();
        assert_eq!(replayed, recs, "definitive records replay in order; degraded skipped");
        assert_eq!(report.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_definitive_answers_are_refused() {
        let dir = tmpdir("refuse");
        let (mut j, _, _) = Journal::open(&dir, 100).unwrap();
        let degraded = JournalRecord {
            group: KindGroup::Explore,
            key: "k\n".into(),
            answer: CachedAnswer::Explore {
                racy: false,
                races: vec![],
                steps: 5,
                definitive: false,
                reason: Some("deadline".into()),
                engine: Some(Engine::Explorer),
            },
        };
        j.append(&degraded).unwrap();
        drop(j);
        let (_j, replayed, _) = Journal::open(&dir, 100).unwrap();
        assert!(replayed.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A record in the format written before the `engine=` line existed,
    /// encoded by hand: it replays (not torn, nothing truncated) with no
    /// engine, and appending after it works.
    #[test]
    fn records_without_an_engine_line_replay_with_no_engine() {
        let dir = tmpdir("no-engine");
        fs::create_dir_all(&dir).unwrap();
        let payload = b"group=explore\nanswer=explore\nracy=true\nsteps=42\nraces=1\n\
                        race=0 1 1 0 3\n\nP0:\n  0: W(m0) := 1\n";
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&fnv1a(payload).to_be_bytes());
        bytes.extend_from_slice(payload);
        fs::write(dir.join("journal.log"), &bytes).unwrap();

        let (mut j, replayed, report) = Journal::open(&dir, 100).unwrap();
        assert_eq!(report, ReplayReport { replayed: 1, skipped: 0, truncated_bytes: 0 });
        let mut expected = racy_record("P0:\n  0: W(m0) := 1\n");
        if let CachedAnswer::Explore { engine, .. } = &mut expected.answer {
            *engine = None;
        }
        assert_eq!(replayed, vec![expected]);
        j.append(&sc_record("next\n")).unwrap();
        drop(j);
        let (_j, replayed, report) = Journal::open(&dir, 100).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].answer.engine(), Some(Engine::Axiom));
        assert_eq!(report.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A whole, checksum-valid record the grammar rejects (here: a
    /// repeated header key) is skipped and counted; the records after it
    /// replay, nothing is truncated, and appends land after the last one.
    #[test]
    fn unreadable_whole_record_is_skipped_not_truncated() {
        let dir = tmpdir("unreadable");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let payload = b"group=sc\nanswer=sc\noutcomes=4\nsteps=99\nnote=1\nnote=2\n\nprog-b\n";
        let mut bytes = encode_record(&racy_record("prog-a\n"));
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&fnv1a(payload).to_be_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&encode_record(&sc_record("prog-c\n")));
        fs::write(&path, &bytes).unwrap();

        let (mut j, replayed, report) = Journal::open(&dir, 100).unwrap();
        assert_eq!(replayed, vec![racy_record("prog-a\n"), sc_record("prog-c\n")]);
        assert_eq!(report, ReplayReport { replayed: 2, skipped: 1, truncated_bytes: 0 });
        assert_eq!(fs::metadata(&path).unwrap().len(), bytes.len() as u64);

        j.append(&sc_record("prog-d\n")).unwrap();
        drop(j);
        let (_j, replayed, report) = Journal::open(&dir, 100).unwrap();
        let keys: Vec<&str> = replayed.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["prog-a\n", "prog-c\n", "prog-d\n"]);
        assert_eq!(report.skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_garbage_files_recover() {
        let dir = tmpdir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("journal.log"), b"not a journal at all").unwrap();
        let (mut j, replayed, report) = Journal::open(&dir, 100).unwrap();
        assert!(replayed.is_empty());
        assert!(report.truncated_bytes > 0);
        j.append(&racy_record("fresh\n")).unwrap();
        drop(j);
        let (_j, replayed, _) = Journal::open(&dir, 100).unwrap();
        assert_eq!(replayed.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
