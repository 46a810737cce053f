//! Tick-level checkpoint/restart (the robustness primitive OSPREY and
//! the RESUME workshop report call out as missing for epidemic
//! workflows on shared HPC).
//!
//! A [`SimSnapshot`] captures everything a [`crate::Simulation`] needs
//! to resume byte-identically: the authoritative [`SimState`], the
//! entries of the [`TickBuckets`](crate::frontier::TickBuckets)
//! progression queue (which holds no partition layout, so a snapshot
//! resumes at any partition count), intervention trigger state, and the
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
//! The wire format is deliberately boring: a one-line header
//! (`EPIHIPERSNAP v2 5`), a table line per section giving its length
//! and FNV-1a-64 checksum, then the section's payload. The sections are
//! `meta`, `state`, `queues`, `interventions` and `carry`. The two tiny
//! ones, `meta` and `interventions`, are JSON; the three large ones are
//! length-prefixed little-endian columns (DESIGN.md §9 gives the
//! layout), so writing them is a memory copy plus the checksum pass.
//! Per-section checksums localise damage — a flipped byte names the
//! section it hit — and a truncated file fails structurally
//! ([`SnapshotError::Torn`]) before any payload is trusted. The column
//! reader checks every length against the bytes left in its section
//! before it allocates, so a hostile length is `Torn` as well.
//!
//! [`SnapshotChain`] layers the torn-write story on top: two A/B slots
//! written alternately, so the previous snapshot is never overwritten
//! in place. A corrupted or torn newest slot is detected on load,
//! surfaced as a [`SnapshotEvent::SnapshotCorrupt`], and recovery falls
//! back to the older sibling — losing one checkpoint interval, not the
//! run. Load never panics on hostile bytes.

use crate::engine::{EngineStats, RunCarry};
use crate::output::{SimOutput, TransitionRecord};
use crate::state::{SimState, NEVER};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Current snapshot format version (the `v2` of the header line).
/// Version 1 had JSON payloads in every section; it is not read.
pub const SNAPSHOT_VERSION: u32 = 2;

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
    /// Progression queue entries: `(tick, nodes)` sorted by tick, nodes sorted
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

    // No capacity from the header: an absurd count must fail on the
    // missing lines, not on the allocation.
    let mut sections = Vec::new();
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
        // `get` doubles as the bounds check: `None` when the payload
        // (or its trailing newline) runs past the end of the file.
        let Some(end) = after.checked_add(len).filter(|&end| bytes.get(end) == Some(&b'\n')) else {
            return Err(SnapshotError::Torn(format!("section `{name}` truncated")));
        };
        let payload = after..end;
        pos = end + 1;
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

/// A fixed-width little-endian value of the binary sections.
trait Word: Copy {
    const SIZE: usize;
    fn put(self, out: &mut Vec<u8>);
    /// Read from exactly `SIZE` bytes.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                let mut le = [0; std::mem::size_of::<$t>()];
                le.copy_from_slice(bytes);
                <$t>::from_le_bytes(le)
            }
        }
    )*};
}
impl_word!(u8, u16, u32, u64);

/// Append a length prefix (a `u64`).
fn put_len(out: &mut Vec<u8>, n: usize) {
    (n as u64).put(out);
}

/// Append a column: its length, then its values.
fn put_column<T: Word>(out: &mut Vec<u8>, xs: impl ExactSizeIterator<Item = T>) {
    put_len(out, xs.len());
    out.reserve(xs.len() * T::SIZE);
    for x in xs {
        x.put(out);
    }
}

/// Append a count matrix: rows, width, then the counts row by row.
///
/// # Panics
///
/// If the rows differ in width. The engine's count rows always have
/// one entry per state.
fn put_matrix(out: &mut Vec<u8>, rows: &[Vec<u32>]) {
    let width = rows.first().map_or(0, Vec::len);
    assert!(rows.iter().all(|r| r.len() == width), "count matrix rows differ in width");
    put_len(out, rows.len());
    put_len(out, width);
    out.reserve(rows.len() * width * u32::SIZE);
    for &x in rows.iter().flatten() {
        x.put(out);
    }
}

/// Append a transition list: its length, then per record the tick, the
/// person, the state and the cause behind an option tag.
fn put_transitions(out: &mut Vec<u8>, records: &[TransitionRecord]) {
    put_len(out, records.len());
    for r in records {
        r.tick.put(out);
        r.person.put(out);
        r.state.put(out);
        match r.cause {
            None => 0u8.put(out),
            Some(u) => {
                1u8.put(out);
                u.put(out);
            }
        }
    }
}

/// The `state` section: one column per per-node field in field order,
/// the edge-enable words and edge count, the scalars, then the user
/// variables sorted by name.
fn encode_state(s: &SimState) -> Vec<u8> {
    let mut out = Vec::with_capacity(s.health.len() * 21 + s.edge_enabled.len() * 8 + 256);
    put_column(&mut out, s.health.iter().copied());
    put_column(&mut out, s.exit_tick.iter().copied());
    put_column(&mut out, s.next_state.iter().copied());
    put_column(&mut out, s.infectivity_scale.iter().map(|x| x.to_bits()));
    put_column(&mut out, s.susceptibility_scale.iter().map(|x| x.to_bits()));
    put_column(&mut out, s.node_flags.iter().copied());
    put_column(&mut out, s.isolated_until.iter().copied());
    put_column(&mut out, s.edge_enabled.iter().copied());
    (s.n_edges as u64).put(&mut out);
    u8::from(s.stay_home_active).put(&mut out);
    s.closed_contexts.put(&mut out);
    s.scheduled_changes.put(&mut out);
    s.health_epoch.put(&mut out);
    let mut variables: Vec<(&String, &f64)> = s.variables.iter().collect();
    variables.sort_unstable_by(|a, b| a.0.cmp(b.0));
    put_len(&mut out, variables.len());
    for (name, value) in variables {
        put_column(&mut out, name.bytes());
        value.to_bits().put(&mut out);
    }
    out
}

/// The `queues` section: the entry count, then per entry the tick and
/// its node column.
fn encode_queues(queues: &[(u32, Vec<u32>)]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(8 + queues.iter().map(|(_, v)| 12 + 4 * v.len()).sum::<usize>());
    put_len(&mut out, queues.len());
    for (tick, nodes) in queues {
        tick.put(&mut out);
        put_column(&mut out, nodes.iter().copied());
    }
    out
}

/// The `carry` section: an option tag, then the output so far, the last
/// tick's transitions, the cumulative transition count and the
/// telemetry columns.
fn encode_carry(carry: Option<&RunCarry>) -> Vec<u8> {
    let mut out = Vec::new();
    let Some(c) = carry else {
        0u8.put(&mut out);
        return out;
    };
    1u8.put(&mut out);
    let o = &c.output;
    put_transitions(&mut out, &o.transitions);
    put_matrix(&mut out, &o.new_counts);
    put_matrix(&mut out, &o.current_counts);
    put_len(&mut out, o.county_new.len());
    for tick in &o.county_new {
        put_matrix(&mut out, tick);
    }
    put_column(&mut out, o.memory_bytes.iter().copied());
    o.requested_seeds.put(&mut out);
    o.seeded.put(&mut out);
    put_transitions(&mut out, &c.recent);
    c.cum_transitions.put(&mut out);
    let st = &c.stats;
    put_column(&mut out, st.frontier_nodes.iter().copied());
    put_column(&mut out, st.due_nodes.iter().copied());
    put_column(&mut out, st.edges_scanned.iter().copied());
    put_column(&mut out, st.events.iter().copied());
    out
}

/// A read position in one binary section. Every read is bounds-checked,
/// and every length is checked against the bytes left in the section
/// before anything is allocated for it, so a hostile length is
/// [`SnapshotError::Torn`] rather than an allocation failure.
struct Cursor<'a> {
    section: &'static str,
    bytes: &'a [u8],
    pos: usize,
    /// Offsets of the length prefixes read so far, for the tests that
    /// aim damage at them.
    #[cfg(test)]
    prefixes: Vec<usize>,
}

impl<'a> Cursor<'a> {
    fn new(section: &'static str, bytes: &'a [u8]) -> Self {
        Cursor {
            section,
            bytes,
            pos: 0,
            #[cfg(test)]
            prefixes: Vec::new(),
        }
    }

    fn torn(&self, why: &str) -> SnapshotError {
        SnapshotError::Torn(format!("section `{}` at byte {}: {why}", self.section, self.pos))
    }

    fn left(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.left() {
            return Err(self.torn("ends early"));
        }
        let taken = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(taken)
    }

    fn word<T: Word>(&mut self) -> Result<T, SnapshotError> {
        self.take(T::SIZE).map(T::get)
    }

    /// An option tag or a boolean: 0 or 1.
    fn flag(&mut self) -> Result<bool, SnapshotError> {
        match self.word::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.torn("tag is neither 0 nor 1")),
        }
    }

    /// A length prefix counting items of at least `min_size` bytes each,
    /// all of which must fit in the rest of the section.
    fn len(&mut self, min_size: usize) -> Result<usize, SnapshotError> {
        #[cfg(test)]
        self.prefixes.push(self.pos);
        let n = self.word::<u64>()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n.checked_mul(min_size).is_some_and(|bytes| bytes <= self.left()))
            .ok_or_else(|| self.torn(&format!("length {n} overruns the section")))
    }

    /// A column of `T`, each value mapped through `f`.
    fn column_map<T: Word, U>(&mut self, f: impl Fn(T) -> U) -> Result<Vec<U>, SnapshotError> {
        let n = self.len(T::SIZE)?;
        Ok(self.take(n * T::SIZE)?.chunks_exact(T::SIZE).map(|b| f(T::get(b))).collect())
    }

    fn column<T: Word>(&mut self) -> Result<Vec<T>, SnapshotError> {
        self.column_map(|x| x)
    }

    fn matrix(&mut self) -> Result<Vec<Vec<u32>>, SnapshotError> {
        // Sized as if every row held at least one count, so a zero width
        // cannot make the row count unbounded.
        let rows = self.len(u32::SIZE)?;
        let width = self.len(u32::SIZE)?;
        let row_bytes = width * u32::SIZE;
        let bytes = rows.checked_mul(row_bytes).ok_or_else(|| self.torn("matrix overflows"))?;
        let flat = self.take(bytes)?;
        Ok((0..rows)
            .map(|r| {
                flat[r * row_bytes..(r + 1) * row_bytes]
                    .chunks_exact(u32::SIZE)
                    .map(u32::get)
                    .collect()
            })
            .collect())
    }

    fn transitions(&mut self) -> Result<Vec<TransitionRecord>, SnapshotError> {
        // tick, person, state and a `None` tag: 11 bytes at least.
        let n = self.len(11)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let tick = self.word()?;
            let person = self.word()?;
            let state = self.word()?;
            let cause = if self.flag()? { Some(self.word()?) } else { None };
            records.push(TransitionRecord { tick, person, state, cause });
        }
        Ok(records)
    }

    /// Every byte of the section was read.
    fn finish(self) -> Result<(), SnapshotError> {
        if self.left() == 0 {
            Ok(())
        } else {
            Err(self.torn("trailing bytes"))
        }
    }
}

fn decode_state(c: &mut Cursor) -> Result<SimState, SnapshotError> {
    let health = c.column()?;
    let exit_tick = c.column()?;
    let next_state = c.column()?;
    let infectivity_scale = c.column_map(f32::from_bits)?;
    let susceptibility_scale = c.column_map(f32::from_bits)?;
    let node_flags = c.column()?;
    let isolated_until = c.column()?;
    let edge_enabled = c.column()?;
    let n_edges = usize::try_from(c.word::<u64>()?).map_err(|_| c.torn("edge count too large"))?;
    let stay_home_active = c.flag()?;
    let closed_contexts = c.word()?;
    let scheduled_changes = c.word()?;
    let health_epoch = c.word()?;
    // A name length and a value: 16 bytes at least.
    let n_variables = c.len(16)?;
    let mut variables = Vec::with_capacity(n_variables);
    for _ in 0..n_variables {
        let name = String::from_utf8(c.column()?).map_err(|_| c.torn("variable name not UTF-8"))?;
        variables.push((name, f64::from_bits(c.word()?)));
    }
    if !variables.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(c.torn("variables not in strict name order"));
    }
    Ok(SimState {
        health,
        exit_tick,
        next_state,
        infectivity_scale,
        susceptibility_scale,
        node_flags,
        isolated_until,
        stay_home_active,
        closed_contexts,
        edge_enabled,
        n_edges,
        variables: variables.into_iter().collect(),
        scheduled_changes,
        health_epoch,
    })
}

fn decode_queues(c: &mut Cursor) -> Result<Vec<(u32, Vec<u32>)>, SnapshotError> {
    // A tick and a node-column length: 12 bytes at least.
    let n = c.len(12)?;
    let mut queues = Vec::with_capacity(n);
    for _ in 0..n {
        let tick = c.word()?;
        queues.push((tick, c.column()?));
    }
    Ok(queues)
}

fn decode_carry(c: &mut Cursor) -> Result<Option<RunCarry>, SnapshotError> {
    if !c.flag()? {
        return Ok(None);
    }
    let transitions = c.transitions()?;
    let new_counts = c.matrix()?;
    let current_counts = c.matrix()?;
    // Rows and width: 16 bytes at least per tick.
    let ticks = c.len(16)?;
    let mut county_new = Vec::with_capacity(ticks);
    for _ in 0..ticks {
        county_new.push(c.matrix()?);
    }
    let output = SimOutput {
        transitions,
        new_counts,
        current_counts,
        county_new,
        memory_bytes: c.column()?,
        requested_seeds: c.word()?,
        seeded: c.word()?,
    };
    let recent = c.transitions()?;
    let cum_transitions = c.word()?;
    let stats = EngineStats {
        frontier_nodes: c.column()?,
        due_nodes: c.column()?,
        edges_scanned: c.column()?,
        events: c.column()?,
    };
    Ok(Some(RunCarry { output, recent, cum_transitions, stats }))
}

/// Read one binary section through `read`, which must consume it all.
fn binary<'a, T>(
    name: &'static str,
    payload: &'a [u8],
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut c = Cursor::new(name, payload);
    let value = read(&mut c)?;
    c.finish()?;
    Ok(value)
}

/// Parse one JSON section.
fn json<T: Deserialize>(name: &str, payload: &[u8]) -> Result<T, SnapshotError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| SnapshotError::Torn(format!("section `{name}` is not UTF-8")))?;
    serde_json::from_str(text).map_err(|e| SnapshotError::Torn(format!("section `{name}`: {e}")))
}

impl SimSnapshot {
    /// Serialize to the checksummed wire format. Deterministic byte for
    /// byte: variables are written sorted by name.
    ///
    /// # Panics
    ///
    /// If a carried count matrix has rows of different widths; the
    /// engine's rows always have one entry per state.
    pub fn encode(&self) -> Vec<u8> {
        let meta = serde_json::to_string(&self.meta).expect("meta serializes");
        let interventions =
            serde_json::to_string(&self.interventions).expect("interventions serialize");
        let sections: [(&str, Vec<u8>); 5] = [
            ("meta", meta.into_bytes()),
            ("state", encode_state(&self.state)),
            ("queues", encode_queues(&self.queues)),
            ("interventions", interventions.into_bytes()),
            ("carry", encode_carry(self.carry.as_ref())),
        ];
        let size: usize = sections.iter().map(|(_, p)| p.len() + 64).sum();
        let mut out = Vec::with_capacity(size + 64);
        out.extend_from_slice(
            format!("{MAGIC} v{SNAPSHOT_VERSION} {}\n", sections.len()).as_bytes(),
        );
        for (name, payload) in &sections {
            out.extend_from_slice(
                format!("{name} {} {:016x}\n", payload.len(), fnv1a(payload)).as_bytes(),
            );
            out.extend_from_slice(payload);
            out.push(b'\n');
        }
        out
    }

    /// Parse and verify the wire format. Checksums are verified before
    /// any payload is read; damage is reported as
    /// [`SnapshotError::Corrupt`] naming the section it hit, structural
    /// damage (a short read, a leftover byte, a length past the end of
    /// its section) as [`SnapshotError::Torn`], and any version but
    /// [`SNAPSHOT_VERSION`] as [`SnapshotError::Version`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (version, sections) = scan_sections(bytes)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(version));
        }
        for s in &sections {
            if fnv1a(&bytes[s.payload.clone()]) != s.claimed_hash {
                return Err(SnapshotError::Corrupt { section: s.name.clone() });
            }
        }
        let payload = |name: &str| {
            sections
                .iter()
                .find(|s| s.name == name)
                .map(|s| &bytes[s.payload.clone()])
                .ok_or_else(|| SnapshotError::Torn(format!("missing section `{name}`")))
        };
        Ok(SimSnapshot {
            meta: json("meta", payload("meta")?)?,
            state: binary("state", payload("state")?, decode_state)?,
            queues: binary("queues", payload("queues")?, decode_queues)?,
            interventions: json("interventions", payload("interventions")?)?,
            carry: binary("carry", payload("carry")?, decode_carry)?,
        })
    }

    /// Check that everything the snapshot indexes with fits a
    /// simulation of `n_nodes` nodes, `n_edges` undirected edges,
    /// `n_states` health states and `n_counties` counties. `decode`
    /// checks structure only, so a re-checksummed snapshot can still
    /// carry a short column, a state id past the model or a node id
    /// past the network; a resumed run would index out of range on any
    /// of them. Each is a [`SnapshotError::Mismatch`].
    pub(crate) fn check_fits(
        &self,
        n_nodes: usize,
        n_edges: usize,
        n_states: usize,
        n_counties: usize,
    ) -> Result<(), SnapshotError> {
        let fail = |why: String| Err(SnapshotError::Mismatch(why));
        let s = &self.state;
        for (field, len) in [
            ("health", s.health.len()),
            ("exit_tick", s.exit_tick.len()),
            ("next_state", s.next_state.len()),
            ("infectivity_scale", s.infectivity_scale.len()),
            ("susceptibility_scale", s.susceptibility_scale.len()),
            ("node_flags", s.node_flags.len()),
            ("isolated_until", s.isolated_until.len()),
        ] {
            if len != n_nodes {
                return fail(format!("`{field}` covers {len} nodes, network has {n_nodes}"));
            }
        }
        if s.n_edges != n_edges || s.edge_enabled.len() != n_edges.div_ceil(64) {
            return fail(format!(
                "{} edge words for {} edges, network has {n_edges} edges",
                s.edge_enabled.len(),
                s.n_edges
            ));
        }
        if let Some(h) = s.health.iter().chain(&s.next_state).find(|&&h| usize::from(h) >= n_states)
        {
            return fail(format!("state id {h}, model has {n_states} states"));
        }
        let next_tick = self.meta.next_tick;
        for (tick, nodes) in &self.queues {
            if *tick < next_tick || *tick == NEVER {
                return fail(format!("queued tick {tick} is not due after tick {next_tick}"));
            }
            if let Some(v) = nodes.iter().find(|&&v| v as usize >= n_nodes) {
                return fail(format!("queued node {v}, network has {n_nodes}"));
            }
        }
        if let Some(c) = &self.carry {
            let out_of_range = |r: &TransitionRecord| {
                r.person as usize >= n_nodes
                    || usize::from(r.state) >= n_states
                    || r.cause.is_some_and(|u| u as usize >= n_nodes)
            };
            if let Some(r) = c.output.transitions.iter().chain(&c.recent).find(|r| out_of_range(r))
            {
                return fail(format!("transition {r:?} is out of range"));
            }
            let o = &c.output;
            let rows_fit =
                o.new_counts.iter().chain(&o.current_counts).all(|r| r.len() == n_states)
                    && o.county_new
                        .iter()
                        .all(|t| t.len() == n_counties && t.iter().all(|r| r.len() == n_states));
            if !rows_fit {
                return fail(format!(
                    "count rows do not cover {n_states} states and {n_counties} counties"
                ));
            }
        }
        Ok(())
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
    use crate::disease::{sir_model, StateId};
    use crate::engine::testkit::{fresh_resume, fresh_sim};
    use crate::engine::SimConfig;
    use crate::interventions::InterventionSet;
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::{ActivityType, ContactNetwork};
    use proptest::prelude::*;

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

    /// Resume a [`snapshot_after`] snapshot and run it to tick 12,
    /// returning the ticks run.
    fn resume_and_run(snap: &SimSnapshot) -> Result<u32, SnapshotError> {
        let config = SimConfig { ticks: 12, seed: 11, initial_infections: 3, ..Default::default() };
        fresh_resume(&small_net(20), sir_model(1.5, 5.0), InterventionSet::default(), config, snap)
            .map(|mut sim| sim.run().ticks_run)
    }

    /// File offsets of every length prefix in the binary sections of
    /// clean `bytes`, as the column reader meets them.
    fn length_prefixes(bytes: &[u8]) -> Vec<usize> {
        let mut offsets = Vec::new();
        for (name, range) in section_ranges(bytes).expect("clean bytes") {
            let mut c = Cursor::new("probe", &bytes[range.clone()]);
            match name.as_str() {
                "state" => decode_state(&mut c).map(drop),
                "queues" => decode_queues(&mut c).map(drop),
                "carry" => decode_carry(&mut c).map(drop),
                _ => continue,
            }
            .expect("clean section reads");
            offsets.extend(c.prefixes.iter().map(|p| range.start + p));
        }
        offsets
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

    /// Only the current version is read: the header of a version-1
    /// file (JSON in every section) or of a future version gives
    /// `Version`, before any payload is parsed.
    #[test]
    fn ckpt_version_gate() {
        let bytes = snapshot_after(3).encode();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = String::from_utf8(bytes[..header_end].to_vec()).unwrap();
        assert_eq!(header, format!("{MAGIC} v2 5"));
        for version in [1, 3] {
            let mut other = bytes.clone();
            other.splice(..header_end, header.replace("v2", &format!("v{version}")).into_bytes());
            assert_eq!(SimSnapshot::decode(&other), Err(SnapshotError::Version(version)));
        }
        // A version-1 file as that format wrote it.
        let mut v1 = format!("{MAGIC} v1 5\n").into_bytes();
        for (name, payload) in [
            (
                "meta",
                r#"{"version":1,"next_tick":3,"seed":11,"n_nodes":20,"n_states":3,"record_transitions":true}"#,
            ),
            ("state", r#"{"health":[0,1,2]}"#),
            ("queues", "[[4,[1,2]]]"),
            ("interventions", "[]"),
            ("carry", "null"),
        ] {
            let line = format!("{name} {} {:016x}\n", payload.len(), fnv1a(payload.as_bytes()));
            v1.extend_from_slice(line.as_bytes());
            v1.extend_from_slice(payload.as_bytes());
            v1.push(b'\n');
        }
        assert_eq!(SimSnapshot::decode(&v1), Err(SnapshotError::Version(1)));
    }

    /// A snapshot that decodes cleanly but does not fit the simulation
    /// is a `Mismatch` on resume, not a panic in the frontier rebuild
    /// or the scan.
    #[test]
    fn ckpt_resume_rejects_out_of_range_contents() {
        let snap = snapshot_after(9);
        assert_eq!(resume_and_run(&snap), Ok(12));
        let edit = |what, damage: fn(&mut SimSnapshot)| {
            let mut bad = snap.clone();
            damage(&mut bad);
            (what, bad)
        };
        let damaged = [
            edit("health id past the model", |s| {
                s.state.health[3] = sir_model(1.5, 5.0).n_states() as StateId
            }),
            edit("next state past the model", |s| s.state.next_state[0] = StateId::MAX),
            edit("short column", |s| {
                s.state.isolated_until.pop();
            }),
            edit("extra edge word", |s| s.state.edge_enabled.push(0)),
            edit("queued node past the network", |s| s.queues.push((10, vec![20]))),
            edit("queued tick already run", |s| s.queues.insert(0, (3, vec![0]))),
            edit("carried transition past the network", |s| {
                let r = TransitionRecord { tick: 8, person: 20, state: 0, cause: None };
                s.carry.as_mut().unwrap().recent.push(r)
            }),
            edit("carried cause past the network", |s| {
                let r = TransitionRecord { tick: 8, person: 1, state: 1, cause: Some(99) };
                s.carry.as_mut().unwrap().output.transitions.push(r)
            }),
            edit("count rows narrower than the model", |s| {
                for row in &mut s.carry.as_mut().unwrap().output.new_counts {
                    row.pop();
                }
            }),
        ];
        for (what, bad) in damaged {
            // The damage survives the wire: decoding alone cannot see it.
            let bad = SimSnapshot::decode(&bad.encode()).expect("damaged snapshot still decodes");
            let resumed = std::panic::catch_unwind(|| resume_and_run(&bad));
            assert!(
                matches!(resumed, Ok(Err(SnapshotError::Mismatch(_)))),
                "{what}: resume gave {resumed:?}"
            );
        }
    }

    /// The counters behind the memory model have no bound a resume
    /// could check, so a restored one near `u64::MAX` saturates the
    /// estimate instead of overflowing it.
    #[test]
    fn ckpt_resumed_counters_saturate_the_memory_model() {
        let mut snap = snapshot_after(9);
        snap.state.scheduled_changes = u64::MAX / 2;
        snap.carry.as_mut().unwrap().cum_transitions = u64::MAX / 4;
        let resumed = std::panic::catch_unwind(|| resume_and_run(&snap));
        assert!(matches!(resumed, Ok(Ok(12))), "resume gave {resumed:?}");
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

    /// One corruption of snapshot wire bytes. Offsets are taken modulo
    /// the length of the bytes they apply to.
    #[derive(Clone, Debug)]
    enum Damage {
        /// Keep only the first `at` bytes.
        Truncate { at: u64 },
        /// XOR single bits, as `(offset, bit)` pairs.
        Flip { bits: Vec<(u64, u8)> },
        /// The first `a_len` bytes of one snapshot, then another
        /// snapshot's bytes from `b_from` on.
        Splice { a_len: u64, b_from: u64 },
        /// Rewrite the `nth` length prefix of a binary section: off by
        /// a little, near `u64::MAX`, or any value (`change % 3`).
        Length { nth: u64, change: u64 },
    }

    fn arb_damage() -> impl Strategy<Value = Damage> {
        (0u8..4, any::<u64>(), any::<u64>(), prop::collection::vec((any::<u64>(), 0u8..8), 1..9))
            .prop_map(|(kind, x, y, bits)| match kind {
                0 => Damage::Truncate { at: x },
                1 => Damage::Flip { bits },
                2 => Damage::Splice { a_len: x, b_from: y },
                _ => Damage::Length { nth: x, change: y },
            })
    }

    /// Apply `d` to `a`, whose length prefixes sit at `prefixes`.
    fn damage(d: &Damage, a: &[u8], prefixes: &[usize], b: &[u8]) -> Vec<u8> {
        let cut = |x: u64, bytes: &[u8]| (x % (bytes.len() as u64 + 1)) as usize;
        match d {
            Damage::Length { nth, change } => {
                let at = prefixes[(nth % prefixes.len() as u64) as usize];
                let mut out = a.to_vec();
                let old = u64::from_le_bytes(out[at..at + 8].try_into().unwrap());
                let small = change >> 2 & 7;
                let new = match change % 3 {
                    0 => old.wrapping_add(small).wrapping_sub(4),
                    1 => u64::MAX - small,
                    _ => *change,
                };
                out[at..at + 8].copy_from_slice(&new.to_le_bytes());
                out
            }
            Damage::Truncate { at } => a[..cut(*at, a)].to_vec(),
            Damage::Flip { bits } => {
                let mut out = a.to_vec();
                for &(at, bit) in bits {
                    out[(at % a.len() as u64) as usize] ^= 1 << bit;
                }
                out
            }
            Damage::Splice { a_len, b_from } => {
                [&a[..cut(*a_len, a)], &b[cut(*b_from, b)..]].concat()
            }
        }
    }

    /// Re-checksum every section of `bytes` over its (damaged) payload,
    /// so the damage gets past the checksums into the payload parsers.
    /// Bytes whose section table no longer parses come back unchanged.
    fn reseal(bytes: &[u8]) -> Vec<u8> {
        let Ok(sections) = section_ranges(bytes) else {
            return bytes.to_vec();
        };
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("table parsed") + 1;
        let mut out = bytes[..header_end].to_vec();
        for (name, range) in sections {
            let payload = &bytes[range];
            out.extend_from_slice(
                format!("{name} {} {:016x}\n", payload.len(), fnv1a(payload)).as_bytes(),
            );
            out.extend_from_slice(payload);
            out.push(b'\n');
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `decode` is total on damaged wire bytes: truncated,
        /// bit-flipped, spliced from two snapshots, or with a length
        /// prefix rewritten, with the checksums left stale or
        /// recomputed, it returns `Ok` or `Err` and never panics. Every
        /// `Ok` also resumes and runs to the horizon, or is refused,
        /// without a panic.
        #[test]
        fn ckpt_decode_is_total_on_corrupted_bytes(d in arb_damage(), resealed in any::<bool>()) {
            static WIRE: std::sync::OnceLock<(Vec<u8>, Vec<usize>, Vec<u8>)> = std::sync::OnceLock::new();
            let (a, prefixes, b) = WIRE.get_or_init(|| {
                let a = snapshot_after(9).encode();
                let prefixes = length_prefixes(&a);
                (a, prefixes, snapshot_after(4).encode())
            });
            let mut bytes = damage(&d, a, prefixes, b);
            if resealed {
                bytes = reseal(&bytes);
            }
            let decoded = std::panic::catch_unwind(|| SimSnapshot::decode(&bytes));
            prop_assert!(decoded.is_ok(), "decode panicked on {d:?} (resealed: {resealed})");
            if let Ok(Ok(snap)) = decoded {
                let resumed = std::panic::catch_unwind(|| resume_and_run(&snap));
                prop_assert!(resumed.is_ok(), "resume panicked on {d:?} (resealed: {resealed})");
            }
        }
    }

    /// Numbers no real snapshot has (a section count, a section length
    /// or a column length near `usize::MAX`) are structural damage, not
    /// an allocation failure or an arithmetic overflow.
    #[test]
    fn ckpt_absurd_header_numbers_are_torn() {
        let max = usize::MAX;
        for bytes in [
            format!("{MAGIC} v2 {max}\n"),
            format!("{MAGIC} v2 1\nmeta {max} 0000000000000000\n{{}}\n"),
        ] {
            assert!(matches!(SimSnapshot::decode(bytes.as_bytes()), Err(SnapshotError::Torn(_))));
        }
        // Every length prefix of a whole snapshot, re-checksummed: the
        // reader refuses each before it allocates.
        let bytes = snapshot_after(9).encode();
        for at in length_prefixes(&bytes) {
            for huge in [max as u64, max as u64 - 1, (max / 2 + 1) as u64, 1 << 40] {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(&huge.to_le_bytes());
                let decoded = SimSnapshot::decode(&reseal(&bad));
                assert!(
                    matches!(decoded, Err(SnapshotError::Torn(_))),
                    "length {huge} at byte {at} gave {decoded:?}"
                );
            }
        }
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
