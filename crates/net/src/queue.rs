//! Switch output queues (§3.3, §3.3.1), stored as flat arenas.
//!
//! The paper associates a queue with each switch output port. The ToMM
//! queues are enhanced VLSI systolic queues (Guibas & Liang) that preserve
//! FIFO order *and* support the associative search used for combining; the
//! ToPE queues are plain FIFOs. Behaviourally, both reduce to the structure
//! modelled here: a FIFO of messages with
//!
//! * capacity measured in **packets** (§4.2 limits each queue to fifteen
//!   packets; a data message is three packets, a control message one);
//! * a transmit link that carries one packet per cycle, so a message of
//!   `L` packets occupies the link for `L` cycles while its *head* reaches
//!   the next stage after a single cycle (the paper's cut-through
//!   pipelining: "the delay at each switch is only one cycle if the queues
//!   are empty");
//! * iteration over queued entries for the combining search.
//!
//! The storage is split in two so that a fabric of half a million switches
//! needs no per-switch allocation:
//!
//! * a [`Slab`] holds every in-flight message of one direction of a
//!   network. Each [`Slot`] carries an intrusive `next` handle, so a queue
//!   is a linked FIFO of `u32` slab handles and a message moving from one
//!   stage to the next is relinked, not copied;
//! * a [`Port`] is one output queue's fixed-size metadata (head and tail
//!   handles, length, packet occupancy, capacity, link timing). The
//!   fabric keeps one flat `Vec<Port>` per stage and direction.
//!
//! The generic parameter lets the same structure serve requests
//! ([`crate::message::Message`]) and replies ([`crate::message::Reply`]).

use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::Cycle;

/// The handle no slot has: an empty queue's head and tail, the end of a
/// FIFO chain and of the free list.
const NIL: u32 = u32::MAX;

/// A queued message plus its bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot<T> {
    /// The queued message.
    pub item: T,
    /// Cycle at which the message head finished arriving; it may not be
    /// transmitted before this.
    pub head_arrival: Cycle,
    /// Whether this slot has already taken part in a combine in this switch
    /// (§3.3 pair-only restriction).
    pub combined_here: bool,
    /// Current length in packets (can change when a combine mutates the
    /// message kind).
    pub packets: u8,
    /// The next slot of the same queue (or of the free list).
    next: u32,
}

/// The in-flight slots of one network direction, with a free list.
///
/// Handles are plain `u32` indices; a freed slot is reused by the next
/// allocation, so the slab's size follows the peak number of messages in
/// flight, not the number of queues.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list.
    free: u32,
    /// Slots currently allocated.
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
            live: 0,
        }
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `item` in a fresh slot and returns its handle. The slot's
    /// queue bookkeeping is set when a [`Port`] links it.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` slots are live at once.
    pub fn alloc(&mut self, item: T) -> u32 {
        self.live += 1;
        if self.free == NIL {
            let h = u32::try_from(self.slots.len())
                .ok()
                .filter(|&h| h != NIL)
                .expect("slab handles are u32");
            self.slots.push(Slot {
                item,
                head_arrival: 0,
                combined_here: false,
                packets: 0,
                next: NIL,
            });
            h
        } else {
            let h = self.free;
            let slot = &mut self.slots[h as usize];
            self.free = slot.next;
            slot.item = item;
            slot.next = NIL;
            h
        }
    }

    /// Returns slot `h` to the free list. Its item stays in place until
    /// the slot is reused.
    pub fn free(&mut self, h: u32) {
        self.live -= 1;
        self.slots[h as usize].next = self.free;
        self.free = h;
    }

    /// The slot behind handle `h`.
    #[must_use]
    pub fn get(&self, h: u32) -> &Slot<T> {
        &self.slots[h as usize]
    }

    /// Mutable access to the slot behind handle `h`.
    pub fn get_mut(&mut self, h: u32) -> &mut Slot<T> {
        &mut self.slots[h as usize]
    }

    /// Slot `a` mutably and slot `b` shared — the combining step, where
    /// the queued request absorbs the incoming one.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn pair_mut(&mut self, a: u32, b: u32) -> (&mut Slot<T>, &Slot<T>) {
        let (a, b) = (a as usize, b as usize);
        assert_ne!(a, b, "a slot cannot combine with itself");
        if a < b {
            let (lo, hi) = self.slots.split_at_mut(b);
            (&mut lo[a], &hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(a);
            (&mut hi[0], &lo[b])
        }
    }

    /// Number of live slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no slot is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl<T: Clone> Slab<T> {
    /// Frees slot `h` and returns a copy of its item — a message leaving
    /// the fabric.
    pub fn take(&mut self, h: u32) -> T {
        let item = self.slots[h as usize].item.clone();
        self.free(h);
        item
    }
}

/// One output queue: a FIFO of [`Slab`] handles plus packet-granularity
/// capacity and link timing.
///
/// # Example
///
/// ```
/// use ultra_net::queue::{Port, Slab};
///
/// let mut slab = Slab::new();
/// let mut q = Port::new(15);
/// q.push_item(&mut slab, "hello", 3, 5);
/// assert_eq!(q.packets_used(), 3);
/// assert!(!q.ready_to_transmit(&slab, 4)); // head not fully usable before cycle 5
/// assert!(q.ready_to_transmit(&slab, 5));
/// let h = q.pop_for_transmit(&slab, 5);
/// assert_eq!(slab.take(h), "hello");
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    head: u32,
    tail: u32,
    len: u32,
    packets_used: usize,
    max_packets_used: usize,
    capacity_packets: usize,
    link_free_at: Cycle,
}

impl Port {
    /// An empty queue holding at most `capacity_packets` packets
    /// (`usize::MAX` models the analytic infinite queue).
    #[must_use]
    pub fn new(capacity_packets: usize) -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
            packets_used: 0,
            max_packets_used: 0,
            capacity_packets,
            link_free_at: 0,
        }
    }

    /// Whether a message of `packets` packets fits right now.
    #[must_use]
    pub fn can_accept(&self, packets: u8) -> bool {
        self.packets_used + packets as usize <= self.capacity_packets
    }

    /// Appends slot `h` (already allocated in `slab`, in no queue) whose
    /// head finishes arriving at `head_arrival`.
    ///
    /// # Panics
    ///
    /// Panics if the queue lacks space — callers must check
    /// [`Port::can_accept`] first (the upstream switch holds a message
    /// until space exists; see §3.3 "the message might be delayed if the
    /// queue this message is due to enter is already full").
    pub fn push<T>(&mut self, slab: &mut Slab<T>, h: u32, packets: u8, head_arrival: Cycle) {
        assert!(
            self.can_accept(packets),
            "queue overflow: caller must check"
        );
        let slot = slab.get_mut(h);
        slot.head_arrival = head_arrival;
        slot.combined_here = false;
        slot.packets = packets;
        self.link(slab, h);
    }

    /// Allocates `item` in `slab` and appends it (see [`Port::push`]).
    /// Returns the new slot's handle.
    pub fn push_item<T>(
        &mut self,
        slab: &mut Slab<T>,
        item: T,
        packets: u8,
        head_arrival: Cycle,
    ) -> u32 {
        let h = slab.alloc(item);
        self.push(slab, h, packets, head_arrival);
        h
    }

    /// Links slot `h` at the tail, trusting its recorded packet count.
    fn link<T>(&mut self, slab: &mut Slab<T>, h: u32) {
        let slot = slab.get_mut(h);
        slot.next = NIL;
        let packets = slot.packets as usize;
        if self.tail == NIL {
            self.head = h;
        } else {
            slab.get_mut(self.tail).next = h;
        }
        self.tail = h;
        self.len += 1;
        self.packets_used += packets;
        self.max_packets_used = self.max_packets_used.max(self.packets_used);
    }

    /// Whether the head message may start transmission at `now`: the queue
    /// is non-empty, the link is idle, and the head has arrived.
    #[must_use]
    pub fn ready_to_transmit<T>(&self, slab: &Slab<T>, now: Cycle) -> bool {
        self.head != NIL && now >= self.link_free_at && now >= slab.get(self.head).head_arrival
    }

    /// Unlinks the head for transmission starting at `now`, marking the
    /// link busy for the message's packet count. The slot stays allocated:
    /// the caller relinks it downstream or takes its item out of the slab.
    ///
    /// # Panics
    ///
    /// Panics if [`Port::ready_to_transmit`] would return `false`.
    pub fn pop_for_transmit<T>(&mut self, slab: &Slab<T>, now: Cycle) -> u32 {
        assert!(self.ready_to_transmit(slab, now), "transmit when not ready");
        let h = self.head;
        let slot = slab.get(h);
        self.head = slot.next;
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        self.packets_used -= slot.packets as usize;
        self.link_free_at = now + Cycle::from(slot.packets);
        h
    }

    /// The queued handles, head first — the combining search (§3.3.1).
    pub fn handles<'a, T>(&self, slab: &'a Slab<T>) -> impl Iterator<Item = u32> + 'a {
        let mut h = self.head;
        std::iter::from_fn(move || {
            (h != NIL).then(|| {
                let cur = h;
                h = slab.get(cur).next;
                cur
            })
        })
    }

    /// The handle at the head of the queue, if any.
    #[must_use]
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Adjusts the recorded packet length of queued slot `h` after a
    /// combine mutated its message kind (e.g. a Load slot adopting a
    /// Store's identity grows from one packet to three). Capacity may be
    /// transiently exceeded: the incoming message's packets had already
    /// been granted queue space.
    pub fn resize<T>(&mut self, slab: &mut Slab<T>, h: u32, packets: u8) {
        let slot = slab.get_mut(h);
        self.packets_used = self.packets_used - slot.packets as usize + packets as usize;
        self.max_packets_used = self.max_packets_used.max(self.packets_used);
        slot.packets = packets;
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no messages are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// Packets currently occupying the queue.
    #[must_use]
    pub fn packets_used(&self) -> usize {
        self.packets_used
    }

    /// The queue's packet capacity.
    #[must_use]
    pub fn capacity_packets(&self) -> usize {
        self.capacity_packets
    }

    /// High-water mark of packet occupancy over the queue's lifetime —
    /// the empirical answer to §4.2's "queues of modest size" question.
    #[must_use]
    pub fn max_packets_used(&self) -> usize {
        self.max_packets_used
    }

    /// Cycle at which the output link next becomes idle.
    #[must_use]
    pub fn link_free_at(&self) -> Cycle {
        self.link_free_at
    }

    /// Serializes the queue: its slots head first, then the high-water
    /// mark, capacity and link timing. `packets_used` is derivable from
    /// the slots; capacity is part of the static config, but a snapshot
    /// must restore it because combines may transiently exceed it (see
    /// [`Port::resize`]) and the analytic infinite-queue case uses
    /// `usize::MAX`.
    pub fn encode<T: Wire>(&self, slab: &Slab<T>, w: &mut WireWriter) {
        w.usize(self.len());
        for h in self.handles(slab) {
            let slot = slab.get(h);
            slot.item.encode(w);
            w.u64(slot.head_arrival);
            w.bool(slot.combined_here);
            w.u8(slot.packets);
        }
        w.usize(self.max_packets_used);
        w.usize(self.capacity_packets);
        w.u64(self.link_free_at);
    }

    /// Rebuilds a queue from [`Port::encode`] bytes, allocating its slots
    /// in `slab`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the bytes are truncated or malformed.
    pub fn decode<T: Wire>(r: &mut WireReader<'_>, slab: &mut Slab<T>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let mut port = Port::new(usize::MAX);
        for _ in 0..len {
            let item = T::decode(r)?;
            let h = slab.alloc(item);
            let slot = slab.get_mut(h);
            slot.head_arrival = r.u64()?;
            slot.combined_here = r.bool()?;
            slot.packets = r.u8()?;
            port.link(slab, h);
        }
        port.max_packets_used = r.usize()?;
        port.capacity_packets = r.usize()?;
        port.link_free_at = r.u64()?;
        Ok(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `q` at `now`, returning the items in transmit order.
    fn drain(q: &mut Port, slab: &mut Slab<u32>, now: Cycle) -> Vec<u32> {
        let mut out = Vec::new();
        while !q.is_empty() {
            let at = now.max(q.link_free_at());
            let h = q.pop_for_transmit(slab, at);
            out.push(slab.take(h));
        }
        out
    }

    #[test]
    fn capacity_is_in_packets() {
        let mut slab = Slab::new();
        let mut q = Port::new(7);
        assert!(q.can_accept(3));
        q.push_item(&mut slab, 1u32, 3, 0);
        q.push_item(&mut slab, 2, 3, 0);
        assert!(q.can_accept(1));
        assert!(!q.can_accept(3), "only one packet left");
        q.push_item(&mut slab, 3, 1, 0);
        assert!(!q.can_accept(1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.packets_used(), 7);
    }

    #[test]
    #[should_panic(expected = "queue overflow")]
    fn push_without_space_panics() {
        let mut slab = Slab::new();
        let mut q = Port::new(3);
        q.push_item(&mut slab, 1u32, 3, 0);
        q.push_item(&mut slab, 2, 1, 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut slab = Slab::new();
        let mut q = Port::new(usize::MAX);
        for i in 0..5u32 {
            q.push_item(&mut slab, i, 1, 0);
        }
        for i in 0..5u32 {
            let now = Cycle::from(i) * 2;
            let h = q.pop_for_transmit(&slab, now);
            assert_eq!(slab.take(h), i);
        }
        assert!(slab.is_empty());
    }

    #[test]
    fn link_busy_for_message_length() {
        let mut slab = Slab::new();
        let mut q = Port::new(usize::MAX);
        q.push_item(&mut slab, 1u32, 3, 0);
        q.push_item(&mut slab, 2, 1, 0);
        assert!(q.ready_to_transmit(&slab, 0));
        let _ = q.pop_for_transmit(&slab, 0);
        // Link busy until cycle 3: the 3-packet message streams out.
        assert!(!q.ready_to_transmit(&slab, 1));
        assert!(!q.ready_to_transmit(&slab, 2));
        assert!(q.ready_to_transmit(&slab, 3));
        assert_eq!(q.link_free_at(), 3);
    }

    #[test]
    fn head_arrival_gates_transmission() {
        let mut slab = Slab::new();
        let mut q = Port::new(usize::MAX);
        q.push_item(&mut slab, 9u32, 1, 10);
        assert!(!q.ready_to_transmit(&slab, 9));
        assert!(q.ready_to_transmit(&slab, 10));
    }

    #[test]
    fn resize_slot_tracks_packets() {
        let mut slab = Slab::new();
        let mut q = Port::new(usize::MAX);
        let first = q.push_item(&mut slab, 1u32, 1, 0);
        q.push_item(&mut slab, 2, 3, 0);
        q.resize(&mut slab, first, 3); // a Load slot grew into a Store
        assert_eq!(q.packets_used(), 6);
        let h = q.pop_for_transmit(&slab, 0);
        assert_eq!(slab.get(h).packets, 3);
        assert_eq!(q.packets_used(), 3);
    }

    #[test]
    fn iter_mut_sees_all_entries() {
        let mut slab = Slab::new();
        let mut q = Port::new(usize::MAX);
        q.push_item(&mut slab, 1u32, 1, 0);
        q.push_item(&mut slab, 2, 1, 0);
        let handles: Vec<u32> = q.handles(&slab).collect();
        assert_eq!(handles.len(), 2);
        for h in handles {
            slab.get_mut(h).item *= 10;
        }
        assert_eq!(drain(&mut q, &mut slab, 0), vec![10, 20]);
    }

    #[test]
    fn empty_queue_not_ready() {
        let slab: Slab<u32> = Slab::new();
        let q = Port::new(4);
        assert!(!q.ready_to_transmit(&slab, 100));
        assert!(q.is_empty());
        assert_eq!(q.front(), None);
    }

    #[test]
    fn queues_share_one_slab_and_reuse_freed_slots() {
        let mut slab = Slab::new();
        let (mut a, mut b) = (Port::new(usize::MAX), Port::new(usize::MAX));
        for i in 0..3 {
            a.push_item(&mut slab, i, 1, 0);
            b.push_item(&mut slab, 10 + i, 1, 0);
        }
        // Relink a's head onto b's tail: the message moves, no copy.
        let h = a.pop_for_transmit(&slab, 0);
        b.push(&mut slab, h, 1, 1);
        assert_eq!(slab.len(), 6);
        assert_eq!(drain(&mut a, &mut slab, 5), vec![1, 2]);
        assert_eq!(drain(&mut b, &mut slab, 5), vec![10, 11, 12, 0]);
        assert!(slab.is_empty());
        // Freed slots are reused before the slab grows.
        let before = slab.slots.len();
        for i in 0..6 {
            a.push_item(&mut slab, i, 1, 0);
        }
        assert_eq!(slab.slots.len(), before);
    }
}
