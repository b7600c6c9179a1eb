//! Golden pins of the fabric's observable behaviour.
//!
//! Each leg drives one [`OmegaNetwork`] with seeded mixed traffic (a hot
//! fetch-and-add word plus random loads, stores and fetch-and-adds), a
//! one-request-per-cycle memory model per MM, and retries for refused
//! injections. At fixed cycles it records
//!
//! * the FNV-1a digest of [`OmegaNetwork::encode_state`] (and checks that
//!   decoding and re-encoding reproduces the bytes);
//! * the [`ultra_net::NetStats`] totals plus the fabric's queue
//!   high-water mark and wait-buffer occupancy;
//! * the FNV-1a digest of the per-switch heatmap.
//!
//! The matrix covers k ∈ {2, 4}, all three switch policies, finite and
//! `usize::MAX` queues, a fault leg (poisoned wait entries and a lossy
//! injection link) and N = 4096. The constants were recorded from the
//! array-of-structs fabric, so any layout change of the switches must
//! reproduce them exactly.
//!
//! The `#[ignore]` leg runs the 65,536-PE ticket machine (every PE
//! fetch-and-adds one hot word, then stores its ticket) and pins its cycle
//! count, combine count and report digest; it needs a release build:
//! `cargo test --release -p ultra-net --test fabric_golden -- --ignored`.

use std::collections::{BTreeMap, VecDeque};

use ultra_faults::FaultMask;
use ultra_net::config::{NetConfig, SwitchPolicy};
use ultra_net::message::{Message, MsgId, MsgKind, PhiOp, Reply};
use ultra_net::omega::{NetworkEvents, OmegaNetwork};
use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::wire::{fnv1a, WireReader, WireWriter};
use ultra_sim::{MemAddr, MmId, PeId, Value};

/// One configuration of the matrix.
struct Leg {
    n: usize,
    k: usize,
    policy: SwitchPolicy,
    finite: bool,
    faults: bool,
}

/// Cycles at which the fabric's state is pinned.
const CHECKPOINTS: [u64; 4] = [5, 17, 40, 90];

/// Cycles during which PEs offer new requests.
const OFFER_UNTIL: u64 = 48;

/// Hard stop for the drain phase.
const LIMIT: u64 = 3000;

fn config(leg: &Leg) -> NetConfig {
    let mut cfg = if leg.k == 2 {
        NetConfig::small(leg.n)
    } else {
        NetConfig::paper_section42_scaled(leg.n)
    };
    cfg.policy = leg.policy;
    if leg.finite {
        cfg.request_queue_packets = 6;
        cfg.reply_queue_packets = 6;
        cfg.wait_entries = 2;
    } else {
        cfg.request_queue_packets = usize::MAX;
        cfg.reply_queue_packets = usize::MAX;
    }
    cfg
}

fn heatmap_digest(net: &OmegaNetwork) -> u64 {
    let heat = net.heatmap();
    let mut bytes = Vec::new();
    for cells in [
        heat.combines(),
        heat.queue_high_water(),
        heat.wait_occupancy(),
    ] {
        for v in cells {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// One pinned line: state digest, stats totals, heatmap digest.
fn checkpoint(net: &OmegaNetwork, now: u64) -> String {
    let mut w = WireWriter::new();
    net.encode_state(&mut w);
    let bytes = w.into_bytes();
    let mut r = WireReader::new(&bytes);
    let twin = OmegaNetwork::decode_state(&mut r).expect("snapshot decodes");
    assert!(r.is_empty(), "decode consumed every byte");
    let mut w2 = WireWriter::new();
    twin.encode_state(&mut w2);
    assert_eq!(bytes, w2.into_bytes(), "cycle {now}: re-encode differs");

    let s = net.stats();
    let by_stage: Vec<String> = s
        .combines_by_stage
        .iter()
        .map(|c| c.get().to_string())
        .collect();
    format!(
        "t={now} state={:016x} inj={} del={} rinj={} rdel={} comb={} [{}] decomb={} \
         declines={} drops={} stalls={} lost={} refused={} stuck={} fwd_sum={} rev_sum={} \
         hw={} wait={} heat={:016x}",
        fnv1a(&bytes),
        s.injected_requests.get(),
        s.delivered_requests.get(),
        s.injected_replies.get(),
        s.delivered_replies.get(),
        s.combines.get(),
        by_stage.join(","),
        s.decombines.get(),
        s.wait_buffer_declines.get(),
        s.drops.get(),
        s.inject_stalls.get(),
        s.fault_dropped.get(),
        s.fault_refusals.get(),
        s.stuck_wait_entries.get(),
        s.forward_transit.sum(),
        s.reverse_transit.sum(),
        net.request_queue_high_water(),
        net.total_wait_occupancy(),
        heatmap_digest(net),
    )
}

/// Drives one leg and returns its pinned lines.
fn run(leg: &Leg, seed: u64) -> String {
    let n = leg.n;
    let mut net = OmegaNetwork::new(config(leg));
    if leg.faults {
        let mut mask = FaultMask::healthy();
        mask.set_link_loss(0.05, seed ^ 0x1055);
        net.set_fault_mask(mask);
        // Poison wait slots along the hot word's combining tree (and one
        // switch twice) so combining capacity visibly shrinks.
        let stages = net.topology().stages();
        for (s, sw) in [(0, 0), (0, 1), (1, 0), (stages - 1, 0), (0, 0)] {
            net.poison_wait_entry(s, sw);
        }
    }
    let mut rng = SplitMix64::new(seed);
    let hot = MemAddr::new(MmId(n / 3), 0);
    let mut outbox: Vec<VecDeque<Message>> = vec![VecDeque::new(); n];
    let mut mm_queue: Vec<VecDeque<Message>> = vec![VecDeque::new(); n];
    let mut mm_outbox: Vec<Option<Reply>> = vec![None; n];
    let mut memory: BTreeMap<(usize, usize), Value> = BTreeMap::new();
    let mut next_id = 1u64;
    let mut events = NetworkEvents::default();
    let mut lines = Vec::new();
    let mut replies = 0u64;
    let mut reply_sum: Value = 0;
    let mut now = 0u64;
    loop {
        if now < OFFER_UNTIL {
            for (pe, queue) in outbox.iter_mut().enumerate() {
                if rng.below(100) >= 30 {
                    continue;
                }
                let (kind, addr, value) = match rng.below(8) {
                    0..=3 => (MsgKind::FetchPhi(PhiOp::Add), hot, 1),
                    4 => (MsgKind::Load, random_addr(&mut rng, n), 0),
                    5 => (MsgKind::Store, random_addr(&mut rng, n), 7),
                    6 => (MsgKind::FetchPhi(PhiOp::Second), hot, pe as Value),
                    _ => (MsgKind::FetchPhi(PhiOp::Add), random_addr(&mut rng, n), 3),
                };
                queue.push_back(Message::request(
                    MsgId(next_id),
                    kind,
                    addr,
                    value,
                    PeId(pe),
                    now,
                ));
                next_id += 1;
            }
        }
        // PEs offer their oldest request; a refused one waits.
        for queue in &mut outbox {
            if let Some(msg) = queue.pop_front() {
                if let Err(back) = net.try_inject_request(msg, now) {
                    queue.push_front(back);
                }
            }
        }
        // MMs retry a refused reply, else serve one queued request.
        for mm in 0..n {
            let reply = match mm_outbox[mm].take() {
                Some(r) => Some(r),
                None => mm_queue[mm].pop_front().map(|req| {
                    let cell = memory.entry((mm, req.addr.offset)).or_insert(0);
                    let old = *cell;
                    match req.kind {
                        MsgKind::Load => {}
                        MsgKind::Store => *cell = req.value,
                        MsgKind::FetchPhi(op) => *cell = op.apply(old, req.value),
                    }
                    Reply::to_request(&req, old)
                }),
            };
            if let Some(r) = reply {
                if let Err(back) = net.try_inject_reply(r, now) {
                    mm_outbox[mm] = Some(back);
                }
            }
        }
        net.cycle_into(now, &mut events);
        for req in events.requests_at_mm.drain(..) {
            mm_queue[req.addr.mm.0].push_back(req);
        }
        for r in events.replies_at_pe.drain(..) {
            replies += 1;
            reply_sum = reply_sum.wrapping_add(r.value);
        }
        for m in events.dropped.drain(..) {
            outbox[m.src.0].push_back(m);
        }
        if CHECKPOINTS.contains(&now) {
            lines.push(checkpoint(&net, now));
        }
        let idle = net.is_drained()
            && outbox.iter().all(VecDeque::is_empty)
            && mm_queue.iter().all(VecDeque::is_empty)
            && mm_outbox.iter().all(Option::is_none);
        if (now >= OFFER_UNTIL && idle) || now == LIMIT {
            break;
        }
        now += 1;
    }
    lines.push(checkpoint(&net, now));
    lines.push(format!("end={now} replies={replies} reply_sum={reply_sum}"));
    lines.join("\n")
}

fn random_addr(rng: &mut SplitMix64, n: usize) -> MemAddr {
    MemAddr::new(MmId(rng.below(n)), rng.below(4))
}

fn policy_name(p: SwitchPolicy) -> &'static str {
    match p {
        SwitchPolicy::QueuedCombining => "combining",
        SwitchPolicy::QueuedNoCombine => "nocombine",
        SwitchPolicy::DropOnConflict => "drop",
    }
}

fn check(leg: &Leg, expected: &str) {
    let got = run(leg, 0x601D ^ (leg.n as u64) ^ ((leg.k as u64) << 20));
    assert!(
        got == expected,
        "n={} k={} {} finite={} faults={}: pins differ\n--- got ---\n{got}\n--- expected ---\n{expected}",
        leg.n,
        leg.k,
        policy_name(leg.policy),
        leg.finite,
        leg.faults,
    );
}

const POLICIES: [SwitchPolicy; 3] = [
    SwitchPolicy::QueuedCombining,
    SwitchPolicy::QueuedNoCombine,
    SwitchPolicy::DropOnConflict,
];

/// The twelve policy × queue × arity legs, in `POLICIES` order, finite
/// queues first.
fn matrix_leg(k: usize, i: usize) -> Leg {
    Leg {
        n: if k == 2 { 64 } else { 256 },
        k,
        policy: POLICIES[i / 2],
        finite: i % 2 == 0,
        faults: false,
    }
}

#[test]
fn k2_matrix_matches_pins() {
    for (i, expected) in K2_PINS.iter().enumerate() {
        check(&matrix_leg(2, i), expected);
    }
}

#[test]
fn k4_matrix_matches_pins() {
    for (i, expected) in K4_PINS.iter().enumerate() {
        check(&matrix_leg(4, i), expected);
    }
}

#[test]
fn fault_legs_match_pins() {
    for (k, n, expected) in [(2, 256, FAULT_K2_PIN), (4, 256, FAULT_K4_PIN)] {
        let leg = Leg {
            n,
            k,
            policy: SwitchPolicy::QueuedCombining,
            finite: true,
            faults: true,
        };
        check(&leg, expected);
    }
}

#[test]
fn paper_4096_leg_matches_pins() {
    let leg = Leg {
        n: 4096,
        k: 4,
        policy: SwitchPolicy::QueuedCombining,
        finite: true,
        faults: false,
    };
    check(&leg, PAPER_4096_PIN);
}

/// The 65,536-PE hot spot: one fetch-and-add per PE on one word, fully
/// combined into a single memory access.
#[test]
#[ignore = "65,536-PE machine; run in release with --ignored"]
fn hotspot_65536_machine_matches_pins() {
    use ultracomputer::machine::MachineBuilder;
    use ultracomputer::program::{body, Expr, Op, Program};
    use ultracomputer::MachineReport;

    const PES: usize = 65536;
    const HOT: i64 = 7;
    const SLOTS: i64 = 1024;
    // The same loop shape as the ticket benchmark: one round of
    // fetch-and-add on the hot word, then a store to this PE's slot.
    let slot = Expr::add(Expr::add(Expr::Const(SLOTS), Expr::PeIndex), Expr::Reg(1));
    let program = Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(1),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(HOT),
                        delta: Expr::Const(1),
                        dst: Some(0),
                    },
                    Op::Store {
                        addr: slot,
                        value: Expr::Reg(0),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let mut m = MachineBuilder::new(PES).build_spmd(&program);
    assert!(m.run().completed, "ticket machine completes");
    let net = m.net_stats();
    let digest = fnv1a(MachineReport::from_machine(&m).parity_string().as_bytes());
    assert_eq!(
        (m.now(), net.combines.get(), digest),
        HOTSPOT_65536_PIN,
        "cycles, combines, report digest"
    );
}

const HOTSPOT_65536_PIN: (u64, u64, u64) = (97, 65535, 2_972_669_361_423_006_379);

const K2_PINS: [&str; 6] = [
    "t=5 state=4d41fc817cc6099f inj=99 del=0 rinj=0 rdel=0 comb=32 [9,8,8,5,2,0] decomb=0 declines=0 drops=0 stalls=68 lost=0 refused=0 stuck=0 fwd_sum=0 rev_sum=0 hw=6 wait=32 heat=40458f40c1152582\n\
     t=17 state=ddf70a45a58679cb inj=290 del=53 rinj=41 rdel=9 comb=106 [36,30,18,11,7,4] decomb=16 declines=15 drops=0 stalls=320 lost=0 refused=0 stuck=0 fwd_sum=525 rev_sum=67 hw=6 wait=90 heat=ce088043fe658fe1\n\
     t=40 state=a422a0d04ae88c3a inj=468 del=142 rinj=142 rdel=180 comb=184 [70,46,27,18,14,9] decomb=76 declines=63 drops=0 stalls=1345 lost=0 refused=0 stuck=0 fwd_sum=1742 rev_sum=1681 hw=6 wait=108 heat=4b5a1ef1336368ce\n\
     t=90 state=26f9258a265131f0 inj=648 del=245 rinj=245 rdel=385 comb=287 [90,69,48,33,27,20] decomb=178 declines=178 drops=0 stalls=3850 lost=0 refused=0 stuck=0 fwd_sum=5336 rev_sum=3804 hw=6 wait=109 heat=e0665ee6537d9994\n\
     t=350 state=daad75ee3196c88b inj=921 del=414 rinj=414 rdel=921 comb=507 [124,105,84,67,65,62] decomb=507 declines=376 drops=0 stalls=6808 lost=0 refused=0 stuck=0 fwd_sum=30787 rev_sum=10877 hw=6 wait=0 heat=657fa7016fa5f48e\n\
     end=350 replies=921 reply_sum=24833",
    "t=5 state=9a7e34f29c503c3d inj=99 del=0 rinj=0 rdel=0 comb=32 [9,8,8,5,2,0] decomb=0 declines=0 drops=0 stalls=68 lost=0 refused=0 stuck=0 fwd_sum=0 rev_sum=0 hw=6 wait=32 heat=40458f40c1152582\n\
     t=17 state=aef1c25e60a2d1a1 inj=307 del=53 rinj=41 rdel=9 comb=136 [39,41,26,17,8,5] decomb=16 declines=0 drops=0 stalls=295 lost=0 refused=0 stuck=0 fwd_sum=524 rev_sum=67 hw=12 wait=120 heat=61c391eca9795e40\n\
     t=40 state=092c3a72c796a483 inj=715 del=180 rinj=176 rdel=195 comb=359 [120,110,66,32,19,12] decomb=113 declines=0 drops=0 stalls=764 lost=0 refused=0 stuck=0 fwd_sum=2261 rev_sum=1859 hw=15 wait=246 heat=9d5111322a802a85\n\
     t=90 state=b5a21509b0d5ab26 inj=921 del=333 rinj=333 rdel=694 comb=579 [173,158,113,69,42,24] decomb=435 declines=0 drops=0 stalls=1032 lost=0 refused=0 stuck=0 fwd_sum=5464 rev_sum=7990 hw=18 wait=144 heat=932a1a6ecc711513\n\
     t=124 state=2e05aac405f2adc2 inj=921 del=341 rinj=341 rdel=921 comb=580 [173,158,113,69,42,25] decomb=580 declines=0 drops=0 stalls=1032 lost=0 refused=0 stuck=0 fwd_sum=5901 rev_sum=11723 hw=18 wait=0 heat=8288b07c65b836d4\n\
     end=124 replies=921 reply_sum=29815",
    "t=5 state=52a72e44d899d4ac inj=98 del=0 rinj=0 rdel=0 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=69 lost=0 refused=0 stuck=0 fwd_sum=0 rev_sum=0 hw=6 wait=0 heat=f420c5eba51b51c2\n\
     t=17 state=33ec627a33e90ae3 inj=190 del=45 rinj=39 rdel=8 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=510 lost=0 refused=0 stuck=0 fwd_sum=419 rev_sum=60 hw=6 wait=0 heat=b5f7dd9aadf815a2\n\
     t=40 state=3aede6087743106c inj=206 del=77 rinj=77 rdel=71 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=1924 lost=0 refused=0 stuck=0 fwd_sum=939 rev_sum=552 hw=6 wait=0 heat=47bcc391b3b355a2\n\
     t=90 state=542333a56abb4f57 inj=229 del=103 rinj=103 rdel=100 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=5037 lost=0 refused=0 stuck=0 fwd_sum=2139 rev_sum=824 hw=6 wait=0 heat=3d1ede89f05335a3\n\
     t=1851 state=dc771719f7c73077 inj=921 del=921 rinj=921 rdel=921 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=58921 lost=0 refused=0 stuck=0 fwd_sum=758006 rev_sum=9769 hw=6 wait=0 heat=1c2b3da9916c4185\n\
     end=1851 replies=921 reply_sum=21228",
    "t=5 state=55c35e62fc58c509 inj=99 del=0 rinj=0 rdel=0 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=68 lost=0 refused=0 stuck=0 fwd_sum=0 rev_sum=0 hw=9 wait=0 heat=3f1843e9419d03c8\n\
     t=17 state=1771290ed07dbe7b inj=307 del=49 rinj=40 rdel=8 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=295 lost=0 refused=0 stuck=0 fwd_sum=472 rev_sum=60 hw=21 wait=0 heat=0df967d339481546\n\
     t=40 state=c6f6d4d62368279b inj=715 del=163 rinj=158 rdel=123 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=764 lost=0 refused=0 stuck=0 fwd_sum=2138 rev_sum=967 hw=42 wait=0 heat=80b25283caa316fe\n\
     t=90 state=2da46b35cf035aac inj=921 del=306 rinj=305 rdel=300 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=1032 lost=0 refused=0 stuck=0 fwd_sum=6022 rev_sum=2390 hw=93 wait=0 heat=6faf433b95bf8349\n\
     t=1844 state=b61e13c855010f17 inj=921 del=921 rinj=921 rdel=921 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=0 stalls=1032 lost=0 refused=0 stuck=0 fwd_sum=558980 rev_sum=7338 hw=897 wait=0 heat=13c64e32def00260\n\
     end=1844 replies=921 reply_sum=21686",
    "t=5 state=01e06e2f28177729 inj=102 del=0 rinj=0 rdel=0 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=60 stalls=99 lost=0 refused=0 stuck=0 fwd_sum=0 rev_sum=0 hw=3 wait=0 heat=c9694a2ebd189f85\n\
     t=17 state=04e315fd869110f7 inj=360 del=37 rinj=30 rdel=8 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=268 stalls=511 lost=0 refused=0 stuck=0 fwd_sum=351 rev_sum=60 hw=3 wait=0 heat=e728b4bccf252987\n\
     t=40 state=9f80ffbf4db1aa19 inj=870 del=108 rinj=108 rdel=86 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=712 stalls=1442 lost=0 refused=0 stuck=0 fwd_sum=1523 rev_sum=669 hw=3 wait=0 heat=82709599ece09b65\n\
     t=90 state=4cce749835d4df17 inj=1980 del=257 rinj=257 rdel=242 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=1680 stalls=3530 lost=0 refused=0 stuck=0 fwd_sum=6791 rev_sum=1898 hw=3 wait=0 heat=2db8db18a50b88c4\n\
     t=1859 state=3c6637fd0d86dcac inj=20218 del=921 rinj=921 rdel=921 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=19297 stalls=39502 lost=0 refused=0 stuck=0 fwd_sum=602127 rev_sum=7468 hw=3 wait=0 heat=5f684469d1025725\n\
     end=1859 replies=921 reply_sum=23349",
    "t=5 state=a76878fd77bc923f inj=102 del=0 rinj=0 rdel=0 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=60 stalls=99 lost=0 refused=0 stuck=0 fwd_sum=0 rev_sum=0 hw=3 wait=0 heat=c9694a2ebd189f85\n\
     t=17 state=7da9c71efad40539 inj=360 del=37 rinj=30 rdel=8 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=268 stalls=511 lost=0 refused=0 stuck=0 fwd_sum=351 rev_sum=60 hw=3 wait=0 heat=e728b4bccf252987\n\
     t=40 state=5f9115a3944ab6ef inj=870 del=108 rinj=108 rdel=86 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=712 stalls=1442 lost=0 refused=0 stuck=0 fwd_sum=1523 rev_sum=669 hw=3 wait=0 heat=82709599ece09b65\n\
     t=90 state=1baa47d7356dd2c2 inj=1980 del=257 rinj=257 rdel=242 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=1680 stalls=3530 lost=0 refused=0 stuck=0 fwd_sum=6791 rev_sum=1900 hw=3 wait=0 heat=2db8db18a50b88c4\n\
     t=1859 state=d80b1c5acb630cdd inj=20218 del=921 rinj=921 rdel=921 comb=0 [0,0,0,0,0,0] decomb=0 declines=0 drops=19297 stalls=39502 lost=0 refused=0 stuck=0 fwd_sum=602127 rev_sum=7470 hw=3 wait=0 heat=5f684469d1025725\n\
     end=1859 replies=921 reply_sum=23349",
];

const K4_PINS: [&str; 6] = [
    "t=5 state=3bf0963e4a6796a8 inj=358 del=8 rinj=6 rdel=0 comb=103 [62,30,8,3] decomb=0 declines=3 drops=0 stalls=237 lost=0 refused=0 stuck=0 fwd_sum=32 rev_sum=0 hw=6 wait=103 heat=686f2a6859d7ba42\n\
     t=17 state=2ac10608d61360c9 inj=602 del=212 rinj=196 rdel=114 comb=174 [116,37,12,9] decomb=22 declines=12 drops=0 stalls=2366 lost=0 refused=0 stuck=0 fwd_sum=1484 rev_sum=634 hw=6 wait=152 heat=34ecac98f0c82606\n\
     t=40 state=135e3ef06679c4a4 inj=665 del=282 rinj=281 rdel=323 comb=210 [128,48,20,14] decomb=55 declines=39 drops=0 stalls=8142 lost=0 refused=0 stuck=0 fwd_sum=2330 rev_sum=1985 hw=6 wait=155 heat=a1c59edd0018114d\n\
     t=90 state=7e1693242bdde1d7 inj=801 del=347 rinj=345 rdel=446 comb=278 [154,63,35,26] decomb=121 declines=103 drops=0 stalls=20656 lost=0 refused=0 stuck=0 fwd_sum=5134 rev_sum=3165 hw=6 wait=157 heat=808fc57fd7c84455\n\
     t=1711 state=10da340d098595d3 inj=3740 del=1944 rinj=1944 rdel=3740 comb=1796 [608,473,372,343] decomb=1796 declines=1361 drops=0 stalls=197226 lost=0 refused=0 stuck=0 fwd_sum=1259654 rev_sum=33546 hw=6 wait=0 heat=22b1d33072cc7841\n\
     end=1711 replies=3740 reply_sum=340772",
    "t=5 state=e590c76a2eee81dc inj=372 del=8 rinj=6 rdel=0 comb=123 [63,43,13,4] decomb=0 declines=0 drops=0 stalls=219 lost=0 refused=0 stuck=0 fwd_sum=32 rev_sum=0 hw=12 wait=123 heat=ebead73c97cfffe6\n\
     t=17 state=f3a7b8b0cf96df79 inj=1231 del=246 rinj=222 rdel=114 comb=518 [298,159,44,17] decomb=26 declines=0 drops=0 stalls=1076 lost=0 refused=0 stuck=0 fwd_sum=1733 rev_sum=634 hw=27 wait=492 heat=61ed898d6e1964fe\n\
     t=40 state=830e5cb31d03d4fe inj=2931 del=823 rinj=793 rdel=698 comb=1319 [810,365,103,41] decomb=107 declines=0 drops=0 stalls=3152 lost=0 refused=0 stuck=0 fwd_sum=7901 rev_sum=4412 hw=49 wait=1212 heat=8a449c9375544b80\n\
     t=90 state=dda42f365cd49ea6 inj=3740 del=1347 rinj=1345 rdel=1634 comb=1998 [1057,635,224,82] decomb=322 declines=0 drops=0 stalls=4167 lost=0 refused=0 stuck=0 fwd_sum=17769 rev_sum=11094 hw=93 wait=1676 heat=80c78502ede446ff\n\
     t=579 state=354770530dac66a8 inj=3740 del=1544 rinj=1544 rdel=3740 comb=2196 [1057,635,331,173] decomb=2196 declines=57 drops=0 stalls=4167 lost=0 refused=0 stuck=0 fwd_sum=69981 rev_sum=28211 hw=309 wait=0 heat=4d3fb4b9bdb09db9\n\
     end=579 replies=3740 reply_sum=385494",
    "t=5 state=d5e0c283996303a1 inj=282 del=9 rinj=7 rdel=0 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=368 lost=0 refused=0 stuck=0 fwd_sum=36 rev_sum=0 hw=6 wait=0 heat=285316dae8c9a6e3\n\
     t=17 state=89546b7280d1d5ea inj=362 del=174 rinj=170 rdel=102 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=2969 lost=0 refused=0 stuck=0 fwd_sum=1183 rev_sum=549 hw=6 wait=0 heat=9f858cc33cce5404\n\
     t=40 state=66033f875439606c inj=376 del=202 rinj=202 rdel=199 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=8836 lost=0 refused=0 stuck=0 fwd_sum=1547 rev_sum=1140 hw=6 wait=0 heat=8239e074ccab15a6\n\
     t=90 state=81337f35e8523aa9 inj=404 del=233 rinj=232 rdel=228 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=21548 lost=0 refused=0 stuck=0 fwd_sum=2924 rev_sum=1427 hw=6 wait=0 heat=238e6dfffa19b167\n\
     t=3000 state=ec13e59aee127253 inj=1845 del=1743 rinj=1738 rdel=1733 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=602926 lost=0 refused=0 stuck=0 fwd_sum=2319010 rev_sum=17923 hw=6 wait=0 heat=02c822b8d3f849a1\n\
     end=3000 replies=1733 reply_sum=124727",
    "t=5 state=82df13484ccc1b75 inj=372 del=9 rinj=7 rdel=0 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=219 lost=0 refused=0 stuck=0 fwd_sum=36 rev_sum=0 hw=21 wait=0 heat=eb9a578283a0144e\n\
     t=17 state=bb320b575e6a9565 inj=1231 del=243 rinj=220 rdel=106 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=1076 lost=0 refused=0 stuck=0 fwd_sum=1720 rev_sum=573 hw=57 wait=0 heat=91075e9ebd51a332\n\
     t=40 state=1e6f3be0db0f43c7 inj=2931 del=786 rinj=756 rdel=603 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=3152 lost=0 refused=0 stuck=0 fwd_sum=7399 rev_sum=3621 hw=129 wait=0 heat=adec0ef926d99cec\n\
     t=90 state=4e5a5b8f88a00387 inj=3740 del=1266 rinj=1264 rdel=1256 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=4167 lost=0 refused=0 stuck=0 fwd_sum=16733 rev_sum=7774 hw=273 wait=0 heat=acf81866a5139a7b\n\
     t=3000 state=c2807434194ec19d inj=3740 del=2385 rinj=2384 rdel=2382 comb=0 [0,0,0,0] decomb=0 declines=0 drops=0 stalls=4167 lost=0 refused=0 stuck=0 fwd_sum=1534783 rev_sum=14454 hw=5271 wait=0 heat=93131fdf07de153c\n\
     end=3000 replies=2382 reply_sum=132728",
    "t=5 state=74f662695936cc1e inj=396 del=9 rinj=7 rdel=0 comb=0 [0,0,0,0] decomb=0 declines=0 drops=250 stalls=387 lost=0 refused=0 stuck=0 fwd_sum=36 rev_sum=0 hw=3 wait=0 heat=ec4bf4e0d53c3a46\n\
     t=17 state=196a306ad8861d81 inj=1446 del=184 rinj=171 rdel=97 comb=0 [0,0,0,0] decomb=0 declines=0 drops=1108 stalls=2097 lost=0 refused=0 stuck=0 fwd_sum=1336 rev_sum=517 hw=3 wait=0 heat=3d3831cad2a1e084\n\
     t=40 state=5b912eb92ef4af17 inj=3521 del=522 rinj=511 rdel=424 comb=0 [0,0,0,0] decomb=0 declines=0 drops=2879 stalls=5900 lost=0 refused=0 stuck=0 fwd_sum=6649 rev_sum=2381 hw=3 wait=0 heat=2257d21494bf74c4\n\
     t=90 state=0cd4c9f9c4056e0e inj=7995 del=1146 rinj=1136 rdel=1089 comb=0 [0,0,0,0] decomb=0 declines=0 drops=6764 stalls=14226 lost=0 refused=0 stuck=0 fwd_sum=26949 rev_sum=6196 hw=3 wait=0 heat=9b6b2f3e6470a327\n\
     t=3000 state=11e6b5c44bf22767 inj=204725 del=2317 rinj=2316 rdel=2313 comb=0 [0,0,0,0] decomb=0 declines=0 drops=202373 stalls=401274 lost=0 refused=0 stuck=0 fwd_sum=1638177 rev_sum=14052 hw=3 wait=0 heat=812942e6688d1325\n\
     end=3000 replies=2313 reply_sum=118921",
    "t=5 state=6d4b4729b45e28a0 inj=396 del=9 rinj=7 rdel=0 comb=0 [0,0,0,0] decomb=0 declines=0 drops=250 stalls=387 lost=0 refused=0 stuck=0 fwd_sum=36 rev_sum=0 hw=3 wait=0 heat=ec4bf4e0d53c3a46\n\
     t=17 state=3dfc1b47e56ea46b inj=1446 del=184 rinj=171 rdel=97 comb=0 [0,0,0,0] decomb=0 declines=0 drops=1108 stalls=2097 lost=0 refused=0 stuck=0 fwd_sum=1336 rev_sum=517 hw=3 wait=0 heat=3d3831cad2a1e084\n\
     t=40 state=b6f32d8889a014e5 inj=3521 del=522 rinj=511 rdel=424 comb=0 [0,0,0,0] decomb=0 declines=0 drops=2879 stalls=5900 lost=0 refused=0 stuck=0 fwd_sum=6649 rev_sum=2381 hw=3 wait=0 heat=2257d21494bf74c4\n\
     t=90 state=05b9b900da41cf2c inj=7995 del=1146 rinj=1136 rdel=1089 comb=0 [0,0,0,0] decomb=0 declines=0 drops=6764 stalls=14226 lost=0 refused=0 stuck=0 fwd_sum=26949 rev_sum=6196 hw=3 wait=0 heat=9b6b2f3e6470a327\n\
     t=3000 state=6339ec5c3a95ae31 inj=204725 del=2317 rinj=2316 rdel=2313 comb=0 [0,0,0,0] decomb=0 declines=0 drops=202373 stalls=401274 lost=0 refused=0 stuck=0 fwd_sum=1638177 rev_sum=14052 hw=3 wait=0 heat=812942e6688d1325\n\
     end=3000 replies=2313 reply_sum=118921",
];

const FAULT_K2_PIN: &str =
    "t=5 state=a2f588f420832b3f inj=358 del=0 rinj=0 rdel=0 comb=91 [23,28,18,16,3,2,1,0] decomb=0 declines=0 drops=0 stalls=196 lost=19 refused=0 stuck=5 fwd_sum=0 rev_sum=0 hw=6 wait=96 heat=fdbf63be83b6d065\n\
     t=17 state=b9ef4641e5aaed23 inj=1097 del=148 rinj=124 rdel=0 comb=350 [106,112,62,32,16,10,7,5] decomb=12 declines=61 drops=0 stalls=1125 lost=68 refused=0 stuck=5 fwd_sum=1605 rev_sum=0 hw=6 wait=343 heat=159406cc3e6088e6\n\
     t=40 state=cfa0a33badbf574e inj=1660 del=532 rinj=522 rdel=471 comb=564 [212,141,80,52,30,20,15,14] decomb=132 declines=190 drops=0 stalls=5344 lost=104 refused=0 stuck=5 fwd_sum=6981 rev_sum=5048 hw=6 wait=437 heat=9dd41bdd450b9a6c\n\
     t=90 state=b01b4e6658b9ab4d inj=1999 del=725 rinj=725 rdel=979 comb=764 [255,177,120,73,50,36,28,25] decomb=326 declines=407 drops=0 stalls=16933 lost=119 refused=0 stuck=5 fwd_sum=13923 rev_sum=11138 hw=6 wait=443 heat=ab17f11a8f5c6574\n\
     t=851 state=c1d975623823b383 inj=3455 del=1618 rinj=1618 rdel=3455 comb=1837 [382,326,272,221,180,155,144,157] decomb=1837 declines=1810 drops=0 stalls=70064 lost=225 refused=0 stuck=5 fwd_sum=315455 rev_sum=51747 hw=6 wait=5 heat=f9a86fe3fd8934d8\n\
     end=851 replies=3455 reply_sum=291688";

const FAULT_K4_PIN: &str =
    "t=5 state=ba6a6ea2b004247f inj=338 del=8 rinj=6 rdel=0 comb=94 [52,31,8,3] decomb=0 declines=4 drops=0 stalls=239 lost=19 refused=0 stuck=5 fwd_sum=32 rev_sum=0 hw=6 wait=99 heat=1b76c74ec7c68ea3\n\
     t=17 state=edfce71eb209f8fc inj=592 del=202 rinj=191 rdel=110 comb=171 [112,37,14,8] decomb=21 declines=13 drops=0 stalls=2319 lost=34 refused=0 stuck=5 fwd_sum=1414 rev_sum=617 hw=6 wait=155 heat=7983fbb94cd9aa03\n\
     t=40 state=cba1d53771c1f86a inj=654 del=278 rinj=278 rdel=316 comb=202 [120,48,21,13] decomb=50 declines=42 drops=0 stalls=8090 lost=36 refused=0 stuck=5 fwd_sum=2261 rev_sum=1927 hw=6 wait=157 heat=c1ff49d53d985a0d\n\
     t=90 state=78b6b896b64ff231 inj=790 del=343 rinj=341 rdel=437 comb=271 [145,67,35,24] decomb=117 declines=105 drops=0 stalls=20611 lost=44 refused=0 stuck=5 fwd_sum=5178 rev_sum=2978 hw=6 wait=159 heat=bbe18999b829f7db\n\
     t=1694 state=f3f38933de7d8ae2 inj=3526 del=1859 rinj=1859 rdel=3526 comb=1667 [567,449,338,313] decomb=1667 declines=1369 drops=0 stalls=196290 lost=214 refused=0 stuck=5 fwd_sum=1191859 rev_sum=31672 hw=6 wait=5 heat=9bc2e357f2ba5dd6\n\
     end=1694 replies=3526 reply_sum=282124";

const PAPER_4096_PIN: &str =
    "t=5 state=de6e4e296ee84e55 inj=5547 del=0 rinj=0 rdel=0 comb=1580 [924,487,128,33,6,2] decomb=0 declines=38 drops=0 stalls=3744 lost=0 refused=0 stuck=0 fwd_sum=0 rev_sum=0 hw=6 wait=1580 heat=4f782e71cb5cc343\n\
     t=17 state=3ea18457f798a74f inj=9048 del=2742 rinj=2436 rdel=503 comb=2479 [1742,501,136,40,21,39] decomb=62 declines=91 drops=0 stalls=37506 lost=0 refused=0 stuck=0 fwd_sum=24357 rev_sum=3596 hw=7 wait=2417 heat=c14e4a1a853bd484\n\
     t=40 state=3f5b44880c54c82a inj=9427 del=4023 rinj=4017 rdel=4154 comb=2629 [1788,546,168,52,28,47] decomb=226 declines=205 drops=0 stalls=130527 lost=0 refused=0 stuck=0 fwd_sum=38647 rev_sum=33832 hw=7 wait=2403 heat=85b60046209804ab\n\
     t=90 state=5e3486cdf1aa6a61 inj=9789 del=4188 rinj=4187 rdel=4584 comb=2838 [1848,602,202,77,47,62] decomb=441 declines=411 drops=0 stalls=334799 lost=0 refused=0 stuck=0 fwd_sum=45800 rev_sum=38013 hw=7 wait=2397 heat=28d32ccf7b072c31\n\
     t=3000 state=65cd582f1a2eca03 inj=21458 del=9243 rinj=9242 rdel=17231 comb=9988 [3541,2128,1472,1123,939,785] decomb=8046 declines=8079 drops=0 stalls=10837727 lost=0 refused=0 stuck=0 fwd_sum=7199617 rev_sum=180787 hw=7 wait=1942 heat=ff0d19794ef2a274\n\
     end=3000 replies=17231 reply_sum=17196832";
