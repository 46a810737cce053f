//! Tick-level checkpoint/restart (the robustness primitive OSPREY and
//! the RESUME workshop report call out as missing for epidemic
//! workflows on shared HPC).
//!
//! A [`SimSnapshot`] captures everything a [`crate::Simulation`] needs
//! to resume byte-identically: the authoritative [`SimState`], the
//! [`TickBuckets`](crate::frontier::TickBuckets) progression queues in
//! a partition-agnostic form, intervention trigger state, and the
//! mid-run continuation ([`RunCarry`]: output series, last tick's
//! transitions, cumulative counts, telemetry). Deliberately *absent*:
//!
//! * frontier/pressure structures (`ActiveSet`, infectious-neighbor
//!   counts, occupancy) — derived data, rebuilt on restore by
//!   `Simulation::rebuild_frontier` in O(V + E);
//! * RNG state — the engine's RNG is counter-based, keyed by
//!   `(seed, node, tick)`, so its "position" is fully determined by the
//!   tick the resume starts at.
//!
//! The wire format is deliberately boring: a one-line header, then one
//! checksummed section per component (`meta`, `state`, `queues`,
//! `interventions`, `carry`), each an FNV-1a-64-guarded JSON payload.
//! Per-section checksums localise damage — a flipped byte names the
//! section it hit — and a truncated file fails structurally
//! ([`SnapshotError::Torn`]) before any payload is trusted.
//!
//! [`SnapshotChain`] layers the torn-write story on top: two A/B slots
//! written alternately, so the previous snapshot is never overwritten
//! in place. A corrupted or torn newest slot is detected on load,
//! surfaced as a [`SnapshotEvent::SnapshotCorrupt`], and recovery falls
//! back to the older sibling — losing one checkpoint interval, not the
//! run. Load never panics on hostile bytes.

use crate::engine::RunCarry;
use crate::state::SimState;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Current snapshot format version (the `v1` of the header line).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic token opening every snapshot.
const MAGIC: &str = "EPIHIPERSNAP";

/// FNV-1a 64-bit hash — the per-section checksum. Not cryptographic;
/// it detects the bit flips and truncations fault injection produces.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Snapshot identity and compatibility gate: a resume is refused unless
/// these match the simulation being rebuilt.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Format version ([`SNAPSHOT_VERSION`] at write time).
    pub version: u32,
    /// First tick the resumed run will execute.
    pub next_tick: u32,
    /// Replicate seed (keys every RNG stream).
    pub seed: u64,
    /// Node count of the network the snapshot belongs to.
    pub n_nodes: u64,
    /// Health-state count of the disease model.
    pub n_states: u32,
    /// Whether the run keeps the full transition log.
    pub record_transitions: bool,
}

/// A complete, versioned simulation snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSnapshot {
    pub meta: SnapshotMeta,
    /// The authoritative mutable state (health, schedules, edge bits,
    /// flags, variables, memory-model counters).
    pub state: SimState,
    /// Progression queues: `(tick, nodes)` sorted by tick, nodes sorted
    /// with duplicates preserved, independent of partition count.
    pub queues: Vec<(u32, Vec<u32>)>,
    /// Per-intervention `(name, trigger state)` in execution order.
    pub interventions: Vec<(String, Option<String>)>,
    /// Mid-run continuation (`None` for a tick-0 snapshot).
    pub carry: Option<RunCarry>,
}

/// Why a snapshot failed to load or apply. Every variant is a normal
/// error value — corrupt input never panics.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// Structurally unreadable: truncated, bad header, missing section.
    Torn(String),
    /// A section's checksum did not match its payload.
    Corrupt { section: String },
    /// Unsupported format version.
    Version(u32),
    /// The snapshot does not belong to the simulation being resumed.
    Mismatch(String),
    /// Every slot of a [`SnapshotChain`] failed to load.
    NoValidSnapshot,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Torn(why) => write!(f, "torn snapshot: {why}"),
            SnapshotError::Corrupt { section } => {
                write!(f, "snapshot section `{section}` failed its checksum")
            }
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Mismatch(why) => write!(f, "snapshot/simulation mismatch: {why}"),
            SnapshotError::NoValidSnapshot => write!(f, "no valid snapshot in either slot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One section located by [`scan_sections`]: name, payload byte range,
/// and the checksum the header claims for it.
struct SectionRef {
    name: String,
    payload: Range<usize>,
    claimed_hash: u64,
}

/// Read one `\n`-terminated line starting at `pos`, returning the line
/// (without the newline) and the position after it.
fn read_line(bytes: &[u8], pos: usize) -> Result<(&str, usize), SnapshotError> {
    let rest = bytes.get(pos..).ok_or_else(|| SnapshotError::Torn("past end of data".into()))?;
    let nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| SnapshotError::Torn("unterminated header line".into()))?;
    let line = std::str::from_utf8(&rest[..nl])
        .map_err(|_| SnapshotError::Torn("non-UTF-8 header line".into()))?;
    Ok((line, pos + nl + 1))
}

/// Structurally parse the header and section table without verifying
/// checksums. Returns the parsed format version and the section list.
fn scan_sections(bytes: &[u8]) -> Result<(u32, Vec<SectionRef>), SnapshotError> {
    let (header, mut pos) = read_line(bytes, 0)?;
    let mut tokens = header.split(' ');
    let magic = tokens.next().unwrap_or("");
    if magic != MAGIC {
        return Err(SnapshotError::Torn(format!("bad magic `{magic}`")));
    }
    let version: u32 = tokens
        .next()
        .and_then(|t| t.strip_prefix('v'))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| SnapshotError::Torn("bad version token".into()))?;
    let n_sections: usize = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| SnapshotError::Torn("bad section count".into()))?;

    let mut sections = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let (line, after) = read_line(bytes, pos)?;
        let mut t = line.split(' ');
        let name = t.next().unwrap_or("").to_string();
        let len: usize = t
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| SnapshotError::Torn(format!("bad length in section `{name}`")))?;
        let claimed_hash = t
            .next()
            .and_then(|x| u64::from_str_radix(x, 16).ok())
            .ok_or_else(|| SnapshotError::Torn(format!("bad checksum in section `{name}`")))?;
        let payload = after..after + len;
        // `get` doubles as the bounds check: `None` when the payload
        // (or its trailing newline) runs past the end of the file.
        if bytes.get(payload.end) != Some(&b'\n') {
            return Err(SnapshotError::Torn(format!("section `{name}` truncated")));
        }
        pos = payload.end + 1;
        sections.push(SectionRef { name, payload, claimed_hash });
    }
    Ok((version, sections))
}

/// Payload byte ranges per section, in file order — the hook the
/// corruption tests use to flip a byte inside each checksummed region.
pub fn section_ranges(bytes: &[u8]) -> Result<Vec<(String, Range<usize>)>, SnapshotError> {
    let (_, sections) = scan_sections(bytes)?;
    Ok(sections.into_iter().map(|s| (s.name, s.payload)).collect())
}

impl SimSnapshot {
    /// Serialize to the checksummed wire format.
    pub fn encode(&self) -> Vec<u8> {
        let sections: [(&str, String); 5] = [
            ("meta", serde_json::to_string(&self.meta).expect("meta serializes")),
            ("state", serde_json::to_string(&self.state).expect("state serializes")),
            ("queues", serde_json::to_string(&self.queues).expect("queues serialize")),
            (
                "interventions",
                serde_json::to_string(&self.interventions).expect("interventions serialize"),
            ),
            ("carry", serde_json::to_string(&self.carry).expect("carry serializes")),
        ];
        let mut out = format!("{MAGIC} v{SNAPSHOT_VERSION} {}\n", sections.len()).into_bytes();
        for (name, payload) in &sections {
            out.extend_from_slice(
                format!("{name} {} {:016x}\n", payload.len(), fnv1a(payload.as_bytes())).as_bytes(),
            );
            out.extend_from_slice(payload.as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Parse and verify the wire format. Checksums are verified before
    /// any payload is deserialized; damage is reported as
    /// [`SnapshotError::Corrupt`] naming the section it hit,
    /// structural damage as [`SnapshotError::Torn`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (version, sections) = scan_sections(bytes)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(version));
        }
        let mut payloads: Vec<(String, &str)> = Vec::with_capacity(sections.len());
        for s in &sections {
            let payload = &bytes[s.payload.clone()];
            if fnv1a(payload) != s.claimed_hash {
                return Err(SnapshotError::Corrupt { section: s.name.clone() });
            }
            let text = std::str::from_utf8(payload)
                .map_err(|_| SnapshotError::Corrupt { section: s.name.clone() })?;
            payloads.push((s.name.clone(), text));
        }
        let get = |name: &str| {
            payloads
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| *p)
                .ok_or_else(|| SnapshotError::Torn(format!("missing section `{name}`")))
        };
        let parse_err = |name: &str, e: serde_json::Error| {
            SnapshotError::Torn(format!("section `{name}`: {e}"))
        };
        let meta: SnapshotMeta =
            serde_json::from_str(get("meta")?).map_err(|e| parse_err("meta", e))?;
        let state: SimState =
            serde_json::from_str(get("state")?).map_err(|e| parse_err("state", e))?;
        let queues: Vec<(u32, Vec<u32>)> =
            serde_json::from_str(get("queues")?).map_err(|e| parse_err("queues", e))?;
        let interventions: Vec<(String, Option<String>)> =
            serde_json::from_str(get("interventions")?)
                .map_err(|e| parse_err("interventions", e))?;
        let carry: Option<RunCarry> =
            serde_json::from_str(get("carry")?).map_err(|e| parse_err("carry", e))?;
        Ok(SimSnapshot { meta, state, queues, interventions, carry })
    }
}

/// Observable snapshot-chain activity, for tests and workflow logs.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotEvent {
    /// A snapshot was written into `slot`.
    Wrote { slot: usize, seq: u64, bytes: usize },
    /// A slot failed to load during recovery.
    SnapshotCorrupt { slot: usize, seq: u64, error: String },
    /// Recovery skipped a bad newer slot and used an older one.
    FellBack { slot: usize, seq: u64 },
}

/// One occupied chain slot.
#[derive(Clone, Debug)]
struct Slot {
    seq: u64,
    bytes: Vec<u8>,
}

/// A two-slot A/B snapshot chain: writes alternate between slots, so
/// the previous snapshot is never overwritten in place and a torn or
/// corrupted write costs one checkpoint interval, not the run. Slots
/// are in-memory byte buffers standing in for the two on-disk files —
/// the fault hooks ([`SnapshotChain::corrupt_slot`],
/// [`SnapshotChain::tear_slot`]) model exactly the damage a crashed or
/// interrupted writer leaves behind.
#[derive(Clone, Debug, Default)]
pub struct SnapshotChain {
    slots: [Option<Slot>; 2],
    seq: u64,
    /// Chain activity log (writes, corruption detections, fallbacks).
    pub events: Vec<SnapshotEvent>,
}

impl SnapshotChain {
    /// Empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sequence number of the most recent write (0 = never written).
    pub fn latest_seq(&self) -> u64 {
        self.seq
    }

    /// Encode `snapshot` into the next A/B slot.
    pub fn write(&mut self, snapshot: &SimSnapshot) {
        self.seq += 1;
        let slot = (self.seq % 2) as usize;
        let bytes = snapshot.encode();
        self.events.push(SnapshotEvent::Wrote { slot, seq: self.seq, bytes: bytes.len() });
        self.slots[slot] = Some(Slot { seq: self.seq, bytes });
    }

    /// Fault hook: flip one byte of a slot (bit-rot / partial write).
    pub fn corrupt_slot(&mut self, slot: usize, offset: usize) {
        if let Some(s) = &mut self.slots[slot] {
            if let Some(b) = s.bytes.get_mut(offset) {
                *b ^= 0x40;
            }
        }
    }

    /// Fault hook: truncate a slot to `keep` bytes (torn write).
    pub fn tear_slot(&mut self, slot: usize, keep: usize) {
        if let Some(s) = &mut self.slots[slot] {
            s.bytes.truncate(keep);
        }
    }

    /// Raw bytes of a slot (for external corruption tests).
    pub fn slot_bytes(&self, slot: usize) -> Option<&[u8]> {
        self.slots[slot].as_ref().map(|s| s.bytes.as_slice())
    }

    /// Load the newest valid snapshot: slots are tried newest-first;
    /// a slot that fails to decode is reported via
    /// [`SnapshotEvent::SnapshotCorrupt`] and recovery falls back to
    /// its sibling. Never panics; [`SnapshotError::NoValidSnapshot`]
    /// when both slots are missing or bad.
    pub fn load(&mut self) -> Result<SimSnapshot, SnapshotError> {
        let mut order: Vec<usize> = (0..2).filter(|&i| self.slots[i].is_some()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.slots[i].as_ref().map(|s| s.seq)));
        let mut fell_back = false;
        for slot in order {
            let s = self.slots[slot].as_ref().expect("occupied slot");
            let seq = s.seq;
            match SimSnapshot::decode(&s.bytes) {
                Ok(snap) => {
                    if fell_back {
                        self.events.push(SnapshotEvent::FellBack { slot, seq });
                    }
                    return Ok(snap);
                }
                Err(e) => {
                    self.events.push(SnapshotEvent::SnapshotCorrupt {
                        slot,
                        seq,
                        error: e.to_string(),
                    });
                    fell_back = true;
                }
            }
        }
        Err(SnapshotError::NoValidSnapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disease::sir_model;
    use crate::engine::testkit::fresh_sim;
    use crate::engine::SimConfig;
    use crate::interventions::InterventionSet;
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::{ActivityType, ContactNetwork};

    fn small_net(n: u32) -> ContactNetwork {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push(ContactEdge {
                    u,
                    v,
                    start: 480,
                    duration: 480,
                    ctx_u: ActivityType::Work,
                    ctx_v: ActivityType::Work,
                    weight: 1.0,
                });
            }
        }
        ContactNetwork { n_nodes: n as usize, edges }
    }

    fn snapshot_after(ticks: u32) -> SimSnapshot {
        let net = small_net(20);
        let mut sim = fresh_sim(
            &net,
            sir_model(1.5, 5.0),
            InterventionSet::default(),
            SimConfig { ticks, seed: 11, initial_infections: 3, ..Default::default() },
        );
        sim.run();
        sim.snapshot()
    }

    #[test]
    fn ckpt_encode_decode_round_trips() {
        let snap = snapshot_after(10);
        assert_eq!(snap.meta.next_tick, 10);
        let bytes = snap.encode();
        let back = SimSnapshot::decode(&bytes).expect("clean bytes decode");
        assert_eq!(back, snap);
        // Encoding is deterministic (checksummable byte-for-byte).
        assert_eq!(snap.encode(), bytes);
    }

    #[test]
    fn ckpt_every_section_is_checksum_guarded() {
        let snap = snapshot_after(8);
        let bytes = snap.encode();
        let ranges = section_ranges(&bytes).unwrap();
        let names: Vec<&str> = ranges.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["meta", "state", "queues", "interventions", "carry"]);
        for (name, range) in &ranges {
            if range.is_empty() {
                continue;
            }
            // Flip one byte in the middle of the section's payload.
            let mut bad = bytes.clone();
            let mid = range.start + range.len() / 2;
            bad[mid] ^= 0x40;
            match SimSnapshot::decode(&bad) {
                Err(SnapshotError::Corrupt { section }) => {
                    assert_eq!(&section, name, "corruption attributed to the wrong section")
                }
                other => panic!("flipped byte in `{name}` gave {other:?}"),
            }
        }
    }

    #[test]
    fn ckpt_truncation_is_torn_not_panic() {
        let snap = snapshot_after(5);
        let bytes = snap.encode();
        // Every strict prefix must fail cleanly (never panic, never
        // succeed) — sampled densely to keep the test fast.
        for keep in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let res = SimSnapshot::decode(&bytes[..keep]);
            assert!(res.is_err(), "prefix of {keep} bytes decoded");
        }
        // And garbage is rejected structurally.
        assert!(matches!(SimSnapshot::decode(b"not a snapshot\n"), Err(SnapshotError::Torn(_))));
    }

    #[test]
    fn ckpt_version_gate() {
        let snap = snapshot_after(3);
        let mut bytes = snap.encode();
        // Rewrite the header's version token (header is line one).
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = String::from_utf8(bytes[..header_end].to_vec()).unwrap();
        let bumped = header.replace("v1", "v2");
        bytes.splice(..header_end, bumped.into_bytes());
        assert_eq!(SimSnapshot::decode(&bytes), Err(SnapshotError::Version(2)));
    }

    #[test]
    fn ckpt_chain_falls_back_to_older_slot() {
        let older = snapshot_after(4);
        let newer = snapshot_after(8);
        let mut chain = SnapshotChain::new();
        chain.write(&older);
        chain.write(&newer);
        assert_eq!(chain.latest_seq(), 2);

        // Clean chain loads the newest.
        assert_eq!(chain.load().unwrap().meta.next_tick, 8);

        // Corrupt the newest slot (seq 2 lives in slot 0): load
        // detects it, surfaces the event, and falls back to seq 1.
        let newest_len = chain.slot_bytes(0).unwrap().len();
        chain.corrupt_slot(0, newest_len / 2);
        let recovered = chain.load().expect("older sibling is intact");
        assert_eq!(recovered.meta.next_tick, 4);
        assert!(chain
            .events
            .iter()
            .any(|e| matches!(e, SnapshotEvent::SnapshotCorrupt { slot: 0, seq: 2, .. })));
        assert!(chain
            .events
            .iter()
            .any(|e| matches!(e, SnapshotEvent::FellBack { slot: 1, seq: 1 })));
    }

    #[test]
    fn ckpt_chain_torn_write_and_total_loss() {
        let snap = snapshot_after(6);
        let mut chain = SnapshotChain::new();
        chain.write(&snap);
        // Tear the only slot mid-file: recovery has nothing left.
        let len = chain.slot_bytes(1).unwrap().len();
        chain.tear_slot(1, len / 3);
        assert_eq!(chain.load(), Err(SnapshotError::NoValidSnapshot));

        // A later good write recovers the chain.
        chain.write(&snap);
        assert!(chain.load().is_ok());
    }

    #[test]
    fn ckpt_error_display_is_informative() {
        let errs = [
            SnapshotError::Torn("x".into()),
            SnapshotError::Corrupt { section: "state".into() },
            SnapshotError::Version(9),
            SnapshotError::Mismatch("seed".into()),
            SnapshotError::NoValidSnapshot,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
