//! The k×k bidirectional switches of one network (§3.3), stored stage by
//! stage.
//!
//! Each switch is "essentially a 2×2 bidirectional routing device" (the
//! paper details 2×2; everything generalizes to k×k, §3.1.1) made of two
//! nearly independent halves:
//!
//! * the **forward** half: `k` ToMM output queues into which arriving
//!   requests are routed by destination digit, with the combining search on
//!   insertion (§3.3.1);
//! * the **reverse** half: `k` ToPE output queues for replies;
//! * the **wait buffer** linking them: each combine deposits an entry, and
//!   a returning reply whose id matches an entry spawns the absorbed
//!   request's reply (§3.3).
//!
//! [`Fabric`] holds every switch of a network in flat arenas rather than
//! one object per switch: per stage, one [`Port`] array per direction
//! indexed `switch * k + port` plus per-switch wait occupancy and combine
//! counts; per network, one [`Slab`] of in-flight slots per direction and
//! one wait table keyed by (switch, survivor id). The static parameters
//! (arity, policy, capacities, packet lengths) live once, on the fabric.
//!
//! The §3.3 simplification "the structure of the switch is simplified if it
//! supports only combinations of pairs" is honoured via the
//! `combined_here` flag: a queue slot that has already combined in this
//! switch will not absorb a third request, but a combined message can
//! combine again at later stages ("combined requests can themselves be
//! combined", §3.1.2).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::combine::{kinds_combinable, try_combine, ReplyRule, WaitEntry};
use crate::config::{NetConfig, SwitchPolicy};
use crate::message::{Message, MsgId, Reply, ReplyKind};
use crate::queue::{Port, Slab};
use crate::route::RouteTables;
use crate::stats::NetStats;
use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::{Cycle, MemAddr, MmId, PeId};

/// What became of a request offered to a switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// Queued normally in a ToMM queue.
    Queued,
    /// Merged into an already-queued request; a wait-buffer entry was
    /// recorded and the request will be answered on the return trip.
    Combined,
    /// Killed under [`SwitchPolicy::DropOnConflict`]; the caller must
    /// arrange the retry.
    Dropped(Message),
}

/// A wait-table key: the switch (numbered across the whole network,
/// `stage * width + index`) and the surviving request's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WaitKey {
    switch: u32,
    id: MsgId,
}

impl WaitKey {
    /// The key of survivor `id` at switch `(stage, switch)` of a fabric
    /// `width` switches wide.
    fn new(width: usize, stage: usize, switch: usize, id: MsgId) -> Self {
        let switch = stage * width + switch;
        Self {
            switch: u32::try_from(switch).expect("switch numbers fit u32"),
            id,
        }
    }
}

impl Hash for WaitKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.id.0 ^ u64::from(self.switch).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
}

/// Multiply-and-fold hash for [`WaitKey`]: deterministic and a few
/// instructions, unlike the default SipHash. Keys are minted by the
/// simulator itself (PNI and network id spaces), not chosen by clients.
#[derive(Default)]
struct WaitHasher(u64);

impl Hasher for WaitHasher {
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^ (h >> 31)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type WaitTable = HashMap<WaitKey, WaitEntry, BuildHasherDefault<WaitHasher>>;

/// One stage's switches: flat per-port queue metadata for each direction
/// plus per-switch counters.
#[derive(Debug, Clone)]
struct Stage {
    /// ToMM queues, `switch * k + port`.
    to_mm: Vec<Port>,
    /// ToPE queues, `switch * k + port`.
    to_pe: Vec<Port>,
    /// Live wait-table entries per switch — the §3.3 capacity check and
    /// the "no entry here" fast path read this instead of hashing.
    wait_count: Vec<u32>,
    /// Combines performed per switch — the per-cell source of the
    /// hot-spot heatmap (the aggregate lives in `NetStats::combines`).
    combines: Vec<u64>,
}

/// Every switch of one Omega network.
#[derive(Debug, Clone)]
pub struct Fabric {
    k: usize,
    width: usize,
    policy: SwitchPolicy,
    wait_capacity: usize,
    data_packets: u8,
    ctl_packets: u8,
    stages: Vec<Stage>,
    /// In-flight requests of every ToMM queue.
    requests: Slab<Message>,
    /// In-flight replies of every ToPE queue.
    replies: Slab<Reply>,
    /// Every switch's wait buffer.
    wait: WaitTable,
}

impl Fabric {
    /// Builds `stages` stages of `width` empty switches under `cfg`.
    #[must_use]
    pub fn new(cfg: &NetConfig, stages: usize, width: usize) -> Self {
        let ports = width * cfg.k;
        Self {
            k: cfg.k,
            width,
            policy: cfg.policy,
            wait_capacity: cfg.wait_entries,
            data_packets: cfg.data_packets,
            ctl_packets: cfg.ctl_packets,
            stages: (0..stages)
                .map(|_| Stage {
                    to_mm: vec![Port::new(cfg.request_queue_packets); ports],
                    to_pe: vec![Port::new(cfg.reply_queue_packets); ports],
                    wait_count: vec![0; width],
                    combines: vec![0; width],
                })
                .collect(),
            requests: Slab::new(),
            replies: Slab::new(),
            wait: WaitTable::default(),
        }
    }

    /// Number of stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Switches per stage.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The ToMM queue of switch `(stage, switch)` behind output `port`.
    #[must_use]
    pub fn to_mm_queue(&self, stage: usize, switch: usize, port: usize) -> &Port {
        &self.stages[stage].to_mm[switch * self.k + port]
    }

    /// The ToPE queue of switch `(stage, switch)` behind output `port`.
    #[must_use]
    pub fn to_pe_queue(&self, stage: usize, switch: usize, port: usize) -> &Port {
        &self.stages[stage].to_pe[switch * self.k + port]
    }

    /// The in-flight requests (every ToMM queue's slots).
    #[must_use]
    pub fn requests(&self) -> &Slab<Message> {
        &self.requests
    }

    /// The in-flight replies (every ToPE queue's slots).
    #[must_use]
    pub fn replies(&self) -> &Slab<Reply> {
        &self.replies
    }

    /// Live wait-buffer entries of switch `(stage, switch)`.
    #[must_use]
    pub fn wait_occupancy(&self, stage: usize, switch: usize) -> usize {
        self.stages[stage].wait_count[switch] as usize
    }

    /// Live wait-buffer entries across the whole fabric.
    #[must_use]
    pub fn total_wait_occupancy(&self) -> usize {
        self.wait.len()
    }

    /// Combines performed in switch `(stage, switch)` since construction.
    #[must_use]
    pub fn combines(&self, stage: usize, switch: usize) -> u64 {
        self.stages[stage].combines[switch]
    }

    /// Largest packet occupancy any ToMM queue of switch `(stage, switch)`
    /// reached.
    #[must_use]
    pub fn request_queue_high_water(&self, stage: usize, switch: usize) -> usize {
        self.switch_ports(&self.stages[stage].to_mm, switch)
            .iter()
            .map(Port::max_packets_used)
            .max()
            .unwrap_or(0)
    }

    /// Largest packet occupancy any ToMM queue of the fabric reached.
    #[must_use]
    pub fn max_request_queue_high_water(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|st| st.to_mm.iter().map(Port::max_packets_used))
            .max()
            .unwrap_or(0)
    }

    fn switch_ports<'a>(&self, ports: &'a [Port], switch: usize) -> &'a [Port] {
        &ports[switch * self.k..(switch + 1) * self.k]
    }

    /// Whether any ToMM (forward) output queue of `(stage, switch)` holds a
    /// message — the occupancy predicate behind the forward active sets.
    #[must_use]
    pub fn has_forward_traffic(&self, stage: usize, switch: usize) -> bool {
        self.switch_ports(&self.stages[stage].to_mm, switch)
            .iter()
            .any(|q| !q.is_empty())
    }

    /// Whether any ToPE (reverse) output queue of `(stage, switch)` holds a
    /// reply — the occupancy predicate behind the reverse active sets.
    #[must_use]
    pub fn has_reverse_traffic(&self, stage: usize, switch: usize) -> bool {
        self.switch_ports(&self.stages[stage].to_pe, switch)
            .iter()
            .any(|q| !q.is_empty())
    }

    /// Fault hook: one wait-buffer slot of `(stage, switch)` sticks. A
    /// ghost entry keyed by an id no real message can carry is inserted and
    /// never deallocated, so the slot is permanently lost to combining (the
    /// §3.3 capacity shrinks by one). Loses no data — only future combining
    /// capacity. Returns `false` if the buffer has no free slot to lose.
    pub fn poison_wait_entry(&mut self, stage: usize, switch: usize, stats: &mut NetStats) -> bool {
        let count = self.stages[stage].wait_count[switch];
        if count as usize >= self.wait_capacity {
            return false;
        }
        // Ids above the top bit are never minted by PNIs (pe << 44 + seq)
        // or network id bases (1 + copy << 48), so the ghost never matches
        // a returning reply.
        let ghost = MsgId(u64::MAX - u64::from(count));
        let entry = WaitEntry {
            survivor: ghost,
            absorbed_id: ghost,
            absorbed_pe: PeId(0),
            addr: MemAddr::new(MmId(0), 0),
            absorbed_issued_at: 0,
            absorbed_reply_kind: ReplyKind::Ack,
            rule: ReplyRule::Ack,
        };
        let key = WaitKey::new(self.width, stage, switch, ghost);
        if self.wait.insert(key, entry).is_none() {
            self.stages[stage].wait_count[switch] += 1;
        }
        stats.stuck_wait_entries.incr();
        true
    }

    /// Whether switch `(stage, switch)` can take `msg` right now (an
    /// upstream switch or PNI calls this before transmitting). Combinable
    /// requests are always acceptable: they consume no queue space.
    #[must_use]
    pub fn can_accept_request(
        &self,
        stage: usize,
        switch: usize,
        msg: &Message,
        routes: &RouteTables,
    ) -> bool {
        let st = &self.stages[stage];
        let q = &st.to_mm[switch * self.k + routes.forward_out_port(msg.addr.mm, stage)];
        let fits = || q.can_accept(msg.packets(self.data_packets, self.ctl_packets));
        match self.policy {
            // Drops are decided (and reported) inside `accept_request`.
            SwitchPolicy::DropOnConflict => true,
            SwitchPolicy::QueuedNoCombine => fits(),
            SwitchPolicy::QueuedCombining => {
                fits()
                    || ((st.wait_count[switch] as usize) < self.wait_capacity
                        && q.handles(&self.requests).any(|h| {
                            let s = self.requests.get(h);
                            !s.combined_here
                                && s.item.addr == msg.addr
                                && kinds_combinable(s.item.kind, msg.kind)
                        }))
            }
        }
    }

    /// Allocates an arriving request's slot; pass the handle to
    /// [`Fabric::accept_request`].
    pub fn alloc_request(&mut self, msg: Message) -> u32 {
        self.requests.alloc(msg)
    }

    /// Allocates an arriving reply's slot; pass the handle to
    /// [`Fabric::accept_reply`].
    pub fn alloc_reply(&mut self, reply: Reply) -> u32 {
        self.replies.alloc(reply)
    }

    /// Routes the request in slot `h` (allocated, in no queue) into the
    /// proper ToMM queue of `(stage, switch)`, combining if possible.
    /// `head_arrival` is the cycle the head becomes available for onward
    /// transmission.
    ///
    /// # Panics
    ///
    /// Panics if the caller did not verify [`Fabric::can_accept_request`].
    #[allow(clippy::too_many_arguments)]
    pub fn accept_request(
        &mut self,
        stage: usize,
        switch: usize,
        h: u32,
        in_port: usize,
        head_arrival: Cycle,
        routes: &RouteTables,
        stats: &mut NetStats,
    ) -> AcceptOutcome {
        let (data, ctl) = (self.data_packets, self.ctl_packets);
        let st = &mut self.stages[stage];
        let msg = &mut self.requests.get_mut(h).item;
        let (out_port, updated) = routes.step_amalgam(msg.amalgam, stage, in_port);
        debug_assert_eq!(
            out_port,
            routes.forward_out_port(msg.addr.mm, stage),
            "amalgam routing must agree with destination-digit routing"
        );
        msg.amalgam = updated;
        let packets = msg.packets(data, ctl);
        let q = &mut st.to_mm[switch * self.k + out_port];

        if self.policy == SwitchPolicy::DropOnConflict {
            if q.is_empty() {
                q.push(&mut self.requests, h, packets, head_arrival);
                return AcceptOutcome::Queued;
            }
            stats.drops.incr();
            // The retry re-enters the network from the PE: restore the
            // amalgam to its injection-time state (the full destination).
            msg.amalgam = msg.addr.mm.0;
            return AcceptOutcome::Dropped(self.requests.take(h));
        }

        if self.policy == SwitchPolicy::QueuedCombining {
            let requests = &self.requests;
            let incoming = &requests.get(h).item;
            let candidate = q.handles(requests).find(|&c| {
                let s = requests.get(c);
                !s.combined_here
                    && s.item.addr == incoming.addr
                    && kinds_combinable(s.item.kind, incoming.kind)
            });
            if let Some(c) = candidate {
                if (st.wait_count[switch] as usize) < self.wait_capacity {
                    let (queued, incoming) = self.requests.pair_mut(c, h);
                    if let Some(entry) = try_combine(&mut queued.item, &incoming.item) {
                        queued.combined_here = true;
                        let new_packets = queued.item.packets(data, ctl);
                        q.resize(&mut self.requests, c, new_packets);
                        self.requests.free(h);
                        let key = WaitKey::new(self.width, stage, switch, entry.survivor);
                        let prior = self.wait.insert(key, entry);
                        debug_assert!(
                            prior.is_none(),
                            "pair-only combining: one wait entry per survivor per switch"
                        );
                        st.wait_count[switch] += 1;
                        st.combines[switch] += 1;
                        stats.combines.incr();
                        stats.combines_by_stage[stage].incr();
                        return AcceptOutcome::Combined;
                    }
                } else {
                    stats.wait_buffer_declines.incr();
                }
            }
        }

        q.push(&mut self.requests, h, packets, head_arrival);
        AcceptOutcome::Queued
    }

    /// The wait entry of `(stage, switch)` for survivor `id`, if any; a
    /// switch with no entries answers without hashing.
    fn wait_entry(&self, stage: usize, switch: usize, id: MsgId) -> Option<&WaitEntry> {
        if self.stages[stage].wait_count[switch] == 0 {
            return None;
        }
        self.wait.get(&WaitKey::new(self.width, stage, switch, id))
    }

    /// Whether switch `(stage, switch)` can take `reply` right now,
    /// *including* space for any decombined reply its arrival would spawn.
    #[must_use]
    pub fn can_accept_reply(
        &self,
        stage: usize,
        switch: usize,
        reply: &Reply,
        routes: &RouteTables,
    ) -> bool {
        let ports = &self.stages[stage].to_pe[switch * self.k..(switch + 1) * self.k];
        let port = routes.reverse_out_port(reply.dst, stage);
        let len = reply.packets(self.data_packets, self.ctl_packets);
        match self.wait_entry(stage, switch, reply.id) {
            None => ports[port].can_accept(len),
            Some(entry) => {
                let spawn_port = routes.reverse_out_port(entry.absorbed_pe, stage);
                let spawn_len = match entry.absorbed_reply_kind {
                    ReplyKind::Value => self.data_packets,
                    ReplyKind::Ack => self.ctl_packets,
                };
                if spawn_port == port {
                    ports[port].can_accept(len + spawn_len)
                } else {
                    ports[port].can_accept(len) && ports[spawn_port].can_accept(spawn_len)
                }
            }
        }
    }

    /// Routes the reply in slot `h` (allocated, in no queue) into the
    /// proper ToPE queue of `(stage, switch)`, consulting the wait buffer
    /// and spawning the absorbed request's reply on a match (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if the caller did not verify [`Fabric::can_accept_reply`].
    #[allow(clippy::too_many_arguments)]
    pub fn accept_reply(
        &mut self,
        stage: usize,
        switch: usize,
        h: u32,
        in_port: usize,
        head_arrival: Cycle,
        routes: &RouteTables,
        stats: &mut NetStats,
    ) {
        let (data, ctl) = (self.data_packets, self.ctl_packets);
        let base = switch * self.k;
        let st = &mut self.stages[stage];
        let reply = &mut self.replies.get_mut(h).item;
        let (out_port, updated) = routes.step_amalgam(reply.amalgam, stage, in_port);
        debug_assert_eq!(
            out_port,
            routes.reverse_out_port(reply.dst, stage),
            "reverse amalgam routing must agree with PE-digit routing"
        );
        reply.amalgam = updated;
        let len = reply.packets(data, ctl);
        let entry = if st.wait_count[switch] == 0 {
            None
        } else {
            self.wait
                .remove(&WaitKey::new(self.width, stage, switch, reply.id))
        };
        let Some(entry) = entry else {
            st.to_pe[base + out_port].push(&mut self.replies, h, len, head_arrival);
            return;
        };
        st.wait_count[switch] -= 1;
        let spawn_amalgam = routes.reverse_amalgam_at(entry.absorbed_pe, entry.addr.mm, stage);
        let mut spawn = entry.make_reply(reply.value, spawn_amalgam);
        spawn.mm_injected_at = reply.mm_injected_at;
        let (spawn_port, spawn_updated) = routes.step_amalgam(spawn.amalgam, stage, in_port);
        debug_assert_eq!(spawn_port, routes.reverse_out_port(spawn.dst, stage));
        spawn.amalgam = spawn_updated;
        let spawn_len = spawn.packets(data, ctl);
        stats.decombines.incr();
        st.to_pe[base + out_port].push(&mut self.replies, h, len, head_arrival);
        // The spawned reply streams out right behind the triggering one;
        // model its head as available one packet later.
        st.to_pe[base + spawn_port].push_item(
            &mut self.replies,
            spawn,
            spawn_len,
            head_arrival + 1,
        );
    }

    /// Unlinks the head of ToMM queue `(stage, switch, port)` for
    /// transmission at `now` and returns its slot handle.
    ///
    /// # Panics
    ///
    /// Panics if the queue is not ready to transmit.
    pub fn pop_request(&mut self, stage: usize, switch: usize, port: usize, now: Cycle) -> u32 {
        self.stages[stage].to_mm[switch * self.k + port].pop_for_transmit(&self.requests, now)
    }

    /// Unlinks the head of ToPE queue `(stage, switch, port)` for
    /// transmission at `now` and returns its slot handle.
    ///
    /// # Panics
    ///
    /// Panics if the queue is not ready to transmit.
    pub fn pop_reply(&mut self, stage: usize, switch: usize, port: usize, now: Cycle) -> u32 {
        self.stages[stage].to_pe[switch * self.k + port].pop_for_transmit(&self.replies, now)
    }

    /// Frees request slot `h` and returns its message (it left the fabric).
    pub fn take_request(&mut self, h: u32) -> Message {
        self.requests.take(h)
    }

    /// Frees reply slot `h` and returns its reply (it left the fabric).
    pub fn take_reply(&mut self, h: u32) -> Reply {
        self.replies.take(h)
    }

    /// Serializes every switch in stage-major order. Per switch the
    /// logical sequence is: stage, index, the `k` ToMM queues, the `k` ToPE
    /// queues, the wait entries sorted by survivor id, the combine count.
    /// Static parameters (capacities aside, see [`Port::encode`]) are not
    /// written — they are re-derived from the [`NetConfig`] on decode.
    pub fn encode_state(&self, w: &mut WireWriter) {
        // One sort of the shared table replaces a per-switch scan: entries
        // come out grouped by switch, in switch order, ids ascending.
        let mut entries: Vec<(&WaitKey, &WaitEntry)> = self.wait.iter().collect();
        entries.sort_unstable_by_key(|(key, _)| (key.switch, key.id));
        let mut entries = entries.into_iter();
        w.usize(self.stages.len());
        for (s, st) in self.stages.iter().enumerate() {
            w.usize(self.width);
            for sw in 0..self.width {
                w.usize(s);
                w.usize(sw);
                let ports = self.switch_ports(&st.to_mm, sw);
                w.usize(ports.len());
                for q in ports {
                    q.encode(&self.requests, w);
                }
                let ports = self.switch_ports(&st.to_pe, sw);
                w.usize(ports.len());
                for q in ports {
                    q.encode(&self.replies, w);
                }
                let count = st.wait_count[sw] as usize;
                w.usize(count);
                for (key, entry) in entries.by_ref().take(count) {
                    debug_assert_eq!(key.switch as usize, s * self.width + sw);
                    key.id.encode(w);
                    entry.encode(w);
                }
                w.u64(st.combines[sw]);
            }
        }
    }

    /// Fills this (freshly built) fabric from [`Fabric::encode_state`]
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the bytes are truncated, malformed, or
    /// disagree with the fabric's shape.
    pub fn decode_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        if r.seq_len()? != self.stages.len() {
            return Err(WireError::Invalid("stage count mismatch"));
        }
        for s in 0..self.stages.len() {
            if r.seq_len()? != self.width {
                return Err(WireError::Invalid("stage width mismatch"));
            }
            for sw in 0..self.width {
                if r.usize()? != s || r.usize()? != sw {
                    return Err(WireError::Invalid("switch out of position"));
                }
                let ports = sw * self.k..(sw + 1) * self.k;
                if r.seq_len()? != self.k {
                    return Err(WireError::Invalid("switch port count mismatch"));
                }
                for p in ports.clone() {
                    self.stages[s].to_mm[p] = Port::decode(r, &mut self.requests)?;
                }
                if r.seq_len()? != self.k {
                    return Err(WireError::Invalid("switch port count mismatch"));
                }
                for p in ports {
                    self.stages[s].to_pe[p] = Port::decode(r, &mut self.replies)?;
                }
                let count = r.seq_len()?;
                for _ in 0..count {
                    let key = WaitKey::new(self.width, s, sw, MsgId::decode(r)?);
                    if self.wait.insert(key, WaitEntry::decode(r)?).is_some() {
                        return Err(WireError::Invalid("duplicate wait entry"));
                    }
                }
                let st = &mut self.stages[s];
                st.wait_count[sw] =
                    u32::try_from(count).map_err(|_| WireError::Invalid("wait count"))?;
                st.combines[sw] = r.u64()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use crate::route::Topology;
    use ultra_sim::{MemAddr, MmId, PeId};

    fn cfg() -> NetConfig {
        NetConfig::small(8)
    }

    fn topo() -> RouteTables {
        RouteTables::new(Topology::new(8, 2))
    }

    fn fabric(c: &NetConfig, t: &RouteTables) -> Fabric {
        Fabric::new(c, t.stages(), t.switches_per_stage())
    }

    fn req(id: u64, pe: usize, mm: usize, kind: MsgKind, value: i64) -> Message {
        Message::request(
            MsgId(id),
            kind,
            MemAddr::new(MmId(mm), 0),
            value,
            PeId(pe),
            0,
        )
    }

    /// Sends `msg` into the stage-0 switch it would physically enter.
    fn into_stage0(
        fab: &mut Fabric,
        topo: &RouteTables,
        msg: Message,
        stats: &mut NetStats,
    ) -> AcceptOutcome {
        let (sw, in_port) = topo.pe_entry(msg.src);
        let h = fab.alloc_request(msg);
        fab.accept_request(0, sw, h, in_port, 1, topo, stats)
    }

    #[test]
    fn routes_by_destination_digit() {
        let t = topo();
        let c = cfg();
        let mut stats = NetStats::new(t.stages());
        let mut fab = fabric(&c, &t);
        // PEs 0 and 4 share stage-0 switch 0 (entry = shuffle).
        let (sw0, _) = t.pe_entry(PeId(0));
        // MM 3 = 0b011: stage 0 uses the msb (0); MM 7 = 0b111: msb 1.
        into_stage0(&mut fab, &t, req(1, 0, 3, MsgKind::Load, 0), &mut stats);
        into_stage0(&mut fab, &t, req(2, 0, 7, MsgKind::Load, 0), &mut stats);
        assert_eq!(fab.to_mm_queue(0, sw0, 0).len(), 1);
        assert_eq!(fab.to_mm_queue(0, sw0, 1).len(), 1);
    }

    #[test]
    fn combines_two_fetch_adds() {
        let t = topo();
        let c = cfg();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let (sw0b, _) = t.pe_entry(PeId(4));
        assert_eq!(sw0, sw0b, "PEs 0 and 4 share a stage-0 switch");
        let mut fab = fabric(&c, &t);
        let a = req(1, 0, 3, MsgKind::fetch_add(), 5);
        let b = req(2, 4, 3, MsgKind::fetch_add(), 9);
        assert_eq!(
            into_stage0(&mut fab, &t, a, &mut stats),
            AcceptOutcome::Queued
        );
        assert_eq!(
            into_stage0(&mut fab, &t, b, &mut stats),
            AcceptOutcome::Combined
        );
        assert_eq!(
            fab.to_mm_queue(0, sw0, 0).len(),
            1,
            "one message on the wire"
        );
        assert_eq!(fab.wait_occupancy(0, sw0), 1);
        assert_eq!(fab.combines(0, sw0), 1);
        assert_eq!(stats.combines.get(), 1);
        assert_eq!(fab.requests().len(), 1, "the absorbed slot was freed");
        let head = fab.to_mm_queue(0, sw0, 0).front().unwrap();
        let slot = fab.requests().get(head);
        assert_eq!(slot.item.value, 14, "operands summed");
        assert!(slot.combined_here);
    }

    #[test]
    fn pair_only_third_request_queues() {
        let t = topo();
        let c = cfg();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut fab = fabric(&c, &t);
        for (id, pe) in [(1, 0), (2, 4)] {
            into_stage0(
                &mut fab,
                &t,
                req(id, pe, 3, MsgKind::fetch_add(), 1),
                &mut stats,
            );
        }
        // Third request to the same word: the existing slot already
        // combined, so it must queue separately (§3.3 pair-only).
        let outcome = into_stage0(
            &mut fab,
            &t,
            req(3, 0, 3, MsgKind::fetch_add(), 1),
            &mut stats,
        );
        assert_eq!(outcome, AcceptOutcome::Queued);
        assert_eq!(fab.to_mm_queue(0, sw0, 0).len(), 2);
    }

    #[test]
    fn fourth_request_combines_with_third() {
        let t = topo();
        let c = cfg();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut fab = fabric(&c, &t);
        for (id, pe) in [(1, 0), (2, 4), (3, 0), (4, 4)] {
            into_stage0(
                &mut fab,
                &t,
                req(id, pe, 3, MsgKind::fetch_add(), 1),
                &mut stats,
            );
        }
        assert_eq!(fab.to_mm_queue(0, sw0, 0).len(), 2, "two combined pairs");
        assert_eq!(stats.combines.get(), 2);
        assert_eq!(fab.wait_occupancy(0, sw0), 2);
        assert_eq!(fab.total_wait_occupancy(), 2);
    }

    #[test]
    fn full_wait_buffer_declines_combining() {
        let t = topo();
        let mut c = cfg();
        c.wait_entries = 0;
        let mut stats = NetStats::new(t.stages());
        let mut fab = fabric(&c, &t);
        into_stage0(
            &mut fab,
            &t,
            req(1, 0, 3, MsgKind::fetch_add(), 5),
            &mut stats,
        );
        let outcome = into_stage0(
            &mut fab,
            &t,
            req(2, 4, 3, MsgKind::fetch_add(), 9),
            &mut stats,
        );
        assert_eq!(outcome, AcceptOutcome::Queued);
        assert_eq!(stats.wait_buffer_declines.get(), 1);
    }

    #[test]
    fn no_combine_policy_keeps_requests_separate() {
        let t = topo();
        let mut c = cfg();
        c.policy = SwitchPolicy::QueuedNoCombine;
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut fab = fabric(&c, &t);
        into_stage0(
            &mut fab,
            &t,
            req(1, 0, 3, MsgKind::fetch_add(), 5),
            &mut stats,
        );
        into_stage0(
            &mut fab,
            &t,
            req(2, 4, 3, MsgKind::fetch_add(), 9),
            &mut stats,
        );
        assert_eq!(fab.to_mm_queue(0, sw0, 0).len(), 2);
        assert_eq!(stats.combines.get(), 0);
    }

    #[test]
    fn drop_policy_kills_conflicting_request() {
        let t = topo();
        let mut c = cfg();
        c.policy = SwitchPolicy::DropOnConflict;
        let mut stats = NetStats::new(t.stages());
        let mut fab = fabric(&c, &t);
        into_stage0(&mut fab, &t, req(1, 0, 3, MsgKind::Load, 0), &mut stats);
        let outcome = into_stage0(&mut fab, &t, req(2, 4, 7, MsgKind::Load, 0), &mut stats);
        // MM 7 routes to the other port: no conflict.
        assert_eq!(outcome, AcceptOutcome::Queued);
        let outcome = into_stage0(&mut fab, &t, req(3, 0, 3, MsgKind::Load, 0), &mut stats);
        let AcceptOutcome::Dropped(m) = outcome else {
            panic!("conflict must drop, got {outcome:?}");
        };
        assert_eq!(
            m.amalgam, 3,
            "a dropped request re-enters with its full destination"
        );
        assert_eq!(stats.drops.get(), 1);
        assert_eq!(fab.requests().len(), 2, "the dropped slot was freed");
    }

    #[test]
    fn reply_decombines_and_spawns_second_reply() {
        let t = topo();
        let c = cfg();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut fab = fabric(&c, &t);
        let a = req(1, 0, 3, MsgKind::fetch_add(), 5);
        let b = req(2, 4, 3, MsgKind::fetch_add(), 9);
        into_stage0(&mut fab, &t, a.clone(), &mut stats);
        into_stage0(&mut fab, &t, b, &mut stats);

        // The combined message would continue to memory holding X = 100 and
        // return a reply for survivor id 1. Route it back into this switch:
        // on the reverse trip it enters on the port it departed from.
        let h = fab.pop_request(0, sw0, 0, 1);
        let survivor = fab.take_request(h);
        assert_eq!(survivor.value, 14);
        let mut reply = Reply::to_request(&survivor, 100);
        // Entering stage 0 on the reverse trip: amalgam must be what a reply
        // would carry at that point.
        reply.amalgam = t.reverse_amalgam_at(reply.dst, reply.addr.mm, 0);
        let in_port = t.forward_out_port(reply.addr.mm, 0);
        assert!(fab.can_accept_reply(0, sw0, &reply, &t));
        let h = fab.alloc_reply(reply);
        fab.accept_reply(0, sw0, h, in_port, 2, &t, &mut stats);
        assert_eq!(stats.decombines.get(), 1);
        assert_eq!(fab.wait_occupancy(0, sw0), 0);

        // Collect both replies from the ToPE queues.
        let mut got = Vec::new();
        for port in 0..2 {
            while !fab.to_pe_queue(0, sw0, port).is_empty() {
                let now = fab.to_pe_queue(0, sw0, port).link_free_at().max(10);
                let h = fab.pop_reply(0, sw0, port, now);
                got.push(fab.take_reply(h));
            }
        }
        got.sort_by_key(|r| r.id);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].id, MsgId(1));
        assert_eq!(got[0].value, 100, "first F&A observes X");
        assert_eq!(got[1].id, MsgId(2));
        assert_eq!(got[1].value, 105, "second F&A observes X + 5");
        assert_eq!(got[1].dst, PeId(4));
        assert_eq!(got[1].kind, ReplyKind::Value);
        assert!(fab.replies().is_empty());
    }

    #[test]
    fn unmatched_reply_passes_straight_through() {
        let t = topo();
        let c = cfg();
        let mut stats = NetStats::new(t.stages());
        let mut fab = fabric(&c, &t);
        let r = Reply {
            id: MsgId(77),
            dst: PeId(0),
            addr: MemAddr::new(MmId(3), 0),
            value: 1,
            kind: ReplyKind::Value,
            request_issued_at: 0,
            mm_injected_at: 0,
            amalgam: t.reverse_amalgam_at(PeId(0), MmId(3), 0),
            attempt: 0,
        };
        let in_port = t.forward_out_port(MmId(3), 0);
        let h = fab.alloc_reply(r);
        fab.accept_reply(0, 0, h, in_port, 1, &t, &mut stats);
        let port = t.reverse_out_port(PeId(0), 0);
        assert_eq!(fab.to_pe_queue(0, 0, port).len(), 1);
        assert_eq!(stats.decombines.get(), 0);
    }

    #[test]
    fn poisoned_wait_slot_shrinks_combining_capacity() {
        let t = topo();
        let mut c = cfg();
        c.wait_entries = 1;
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut fab = fabric(&c, &t);
        assert!(fab.poison_wait_entry(0, sw0, &mut stats));
        assert_eq!(stats.stuck_wait_entries.get(), 1);
        assert_eq!(fab.wait_occupancy(0, sw0), 1);
        // The single wait slot is gone: a combinable pair must decline.
        into_stage0(
            &mut fab,
            &t,
            req(1, 0, 3, MsgKind::fetch_add(), 5),
            &mut stats,
        );
        let outcome = into_stage0(
            &mut fab,
            &t,
            req(2, 4, 3, MsgKind::fetch_add(), 9),
            &mut stats,
        );
        assert_eq!(outcome, AcceptOutcome::Queued);
        assert_eq!(stats.combines.get(), 0);
        // No free slot left to poison a second time.
        assert!(!fab.poison_wait_entry(0, sw0, &mut stats));
        // The ghost belongs to this switch alone.
        assert_eq!(fab.wait_occupancy(1, sw0), 0);
    }

    #[test]
    fn can_accept_request_true_when_combinable_despite_full_queue() {
        let t = topo();
        let mut c = cfg();
        c.request_queue_packets = 3;
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut fab = fabric(&c, &t);
        into_stage0(
            &mut fab,
            &t,
            req(1, 0, 3, MsgKind::fetch_add(), 5),
            &mut stats,
        );
        // Queue now holds 3 packets = full, but a combinable twin must still
        // be acceptable (it takes no space).
        let twin = req(2, 4, 3, MsgKind::fetch_add(), 9);
        assert!(fab.can_accept_request(0, sw0, &twin, &t));
        // A request to a different word behind the same port is refused.
        let mut other = req(3, 4, 3, MsgKind::fetch_add(), 9);
        other.addr.offset = 99;
        assert!(!fab.can_accept_request(0, sw0, &other, &t));
    }
}
