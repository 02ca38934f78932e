//! End-to-end determinism contract of `nvsim-serve` over the real
//! backend matrix: the same multi-session script must produce
//! byte-identical response streams (and byte-identical streamed JSONL)
//! at any worker count, parking/rehydration must be invisible, and a
//! session migrated mid-script — even to a different server — must
//! continue exactly like an uninterrupted run.

use nvsim::backends::build_server;
use nvsim::serve::protocol::{Command, OpenOptions, Response};
use nvsim::serve::{decode_responses, ServerConfig};
use nvsim::types::{Addr, BackendKind, DetRng, FaultPlan, MemOp, RequestDesc};

/// A deterministic mixed batch: loads, stores, persists, fences.
fn mixed_batch(seed: u64, ops: u64) -> Vec<RequestDesc> {
    let mut rng = DetRng::seed_from(0xbeef_0000 ^ seed);
    (0..ops)
        .map(|i| {
            let addr = Addr::new(rng.range_u64(0, (16 << 20) / 64) * 64);
            match i % 5 {
                0 => RequestDesc::new(addr, 64, MemOp::Store),
                1 => RequestDesc::new(addr, 64, MemOp::NtStore),
                2 => RequestDesc::new(addr, 32, MemOp::StoreClwb),
                3 if i % 15 == 3 => RequestDesc::fence(),
                _ => RequestDesc::load(addr),
            }
        })
        .collect()
}

fn open(sid: u64, kind: BackendKind, opts: OpenOptions) -> Command {
    Command::Open {
        sid,
        kind,
        dimms: 1,
        opts,
    }
}

fn encode(cmds: &[Command]) -> Vec<u8> {
    let mut buf = Vec::new();
    for c in cmds {
        c.encode_frame(&mut buf);
    }
    buf
}

/// A multi-session workload across heterogeneous backend kinds, with
/// tracing, durability tracking, fault injection, a save and a migrate
/// mixed in — the service's whole surface in one script.
fn workload() -> Vec<u8> {
    let mut cmds = vec![
        open(
            1,
            BackendKind::Vans,
            OpenOptions {
                trace: true,
                durability: true,
                snapshot_interval: 0,
            },
        ),
        open(2, BackendKind::DramDdr4, OpenOptions::default()),
        open(3, BackendKind::FixedLatency, OpenOptions::default()),
        open(4, BackendKind::Pmep, OpenOptions::default()),
    ];
    for round in 0..3u64 {
        for sid in 1..=4u64 {
            cmds.push(Command::Batch {
                sid,
                reqs: mixed_batch(round * 10 + sid, 60),
            });
        }
        if round == 1 {
            cmds.push(Command::Fault {
                sid: 1,
                plan: FaultPlan::at_insertion(20),
            });
            cmds.push(Command::Save { sid: 2 });
            cmds.push(Command::Migrate { sid: 3 });
        }
    }
    for sid in 1..=4u64 {
        cmds.push(Command::Close { sid });
    }
    encode(&cmds)
}

/// Concatenated TraceChunk bytes for one session, in stream order.
fn jsonl_of(reply: &[u8], sid: u64) -> Vec<u8> {
    decode_responses(reply)
        .expect("well-formed reply")
        .into_iter()
        .filter_map(|r| match r {
            Response::TraceChunk { sid: s, bytes, .. } if s == sid => Some(bytes),
            _ => None,
        })
        .flatten()
        .collect()
}

/// The determinism contract: byte-identical response streams — and in
/// particular byte-identical streamed JSONL — at workers = 1, 2, 8,
/// and under a warm-capacity squeeze that forces LRU parking.
#[test]
fn worker_count_and_lru_never_change_bytes() {
    let script = workload();
    let reference = build_server(ServerConfig::with_workers(1))
        .run_script(&script)
        .expect("valid script");
    assert!(!reference.is_empty());
    assert!(
        !jsonl_of(&reference, 1).is_empty(),
        "the traced VANS session must stream JSONL"
    );

    for workers in [2, 8] {
        let got = build_server(ServerConfig::with_workers(workers))
            .run_script(&script)
            .expect("valid script");
        assert_eq!(got, reference, "workers={workers} changed response bytes");
    }

    let squeezed = build_server(ServerConfig {
        workers: 8,
        warm_capacity: 1,
    });
    // Feed the script in two flushes so the LRU actually parks between
    // them, then compare against the one-shot reference semantically
    // per frame (the split point itself is on a frame boundary, so the
    // bytes still concatenate identically).
    let mut squeezed = squeezed;
    let frames = workload();
    let mid = frames.len() / 2;
    // Split on a safe boundary: ingest returns only complete frames,
    // so an arbitrary byte split is fine — the decoder reassembles.
    let mut streamed = Vec::new();
    squeezed.ingest(&frames[..mid]).expect("first half");
    streamed.extend(squeezed.flush().expect("first flush"));
    squeezed.ingest(&frames[mid..]).expect("second half");
    streamed.extend(squeezed.flush().expect("second flush"));
    squeezed.end_of_stream().expect("clean end");
    assert_eq!(
        streamed, reference,
        "LRU parking between flushes changed response bytes"
    );
}

/// A session migrated mid-script — parked, then rehydrated on next
/// touch, possibly on another worker — must produce the same
/// completions, counters and JSONL as an uninterrupted run (sequence
/// numbers shift by the Migrated frame, so compare content).
#[test]
fn migrate_resume_equals_uninterrupted() {
    let opts = OpenOptions {
        trace: true,
        durability: false,
        snapshot_interval: 0,
    };
    let straight = vec![
        open(1, BackendKind::Vans, opts),
        Command::Batch {
            sid: 1,
            reqs: mixed_batch(7, 80),
        },
        Command::Batch {
            sid: 1,
            reqs: mixed_batch(8, 80),
        },
        Command::Close { sid: 1 },
    ];
    let mut interrupted = straight.clone();
    interrupted.insert(2, Command::Migrate { sid: 1 });

    let a = build_server(ServerConfig::default())
        .run_script(&encode(&straight))
        .expect("valid script");
    let b = build_server(ServerConfig::with_workers(4))
        .run_script(&encode(&interrupted))
        .expect("valid script");

    let content = |reply: &[u8]| {
        decode_responses(reply)
            .expect("well-formed")
            .into_iter()
            .filter_map(|r| match r {
                Response::BatchDone { completions, .. } => Some(format!("batch:{completions:?}")),
                Response::Closed { counters, .. } => Some(format!("closed:{counters:?}")),
                Response::Opened { label, .. } => Some(format!("opened:{label}")),
                Response::TraceChunk { .. } | Response::Migrated { .. } => None,
                other => Some(format!("other:{other:?}")),
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(content(&a), content(&b));
    assert_eq!(
        jsonl_of(&a, 1),
        jsonl_of(&b, 1),
        "migration must not perturb the JSONL trace stream"
    );
}

/// Live migration between *servers*: a snapshot blob saved on one
/// server restores into a session on a different server, and the
/// continuation matches the original server's exactly.
#[test]
fn sessions_migrate_between_servers() {
    let prefix = vec![
        open(1, BackendKind::Vans, OpenOptions::default()),
        Command::Batch {
            sid: 1,
            reqs: mixed_batch(3, 60),
        },
        Command::Save { sid: 1 },
    ];
    let continuation = |sid: u64| Command::Batch {
        sid,
        reqs: mixed_batch(4, 60),
    };

    let mut origin = build_server(ServerConfig::default());
    let reply = origin.run_script(&encode(&prefix)).expect("valid script");
    let blob = decode_responses(&reply)
        .expect("well-formed")
        .into_iter()
        .find_map(|r| match r {
            Response::SnapshotBlob { blob, .. } => Some(blob),
            _ => None,
        })
        .expect("save answered with a blob");

    // Continue on the origin server.
    let reply_origin = origin
        .run_script(&encode(&[continuation(1), Command::Close { sid: 1 }]))
        .expect("valid script");

    // Restore the blob into a fresh session on a second server.
    let mut target = build_server(ServerConfig::default());
    let reply_target = target
        .run_script(&encode(&[
            open(9, BackendKind::Vans, OpenOptions::default()),
            Command::Restore { sid: 9, blob },
            continuation(9),
            Command::Close { sid: 9 },
        ]))
        .expect("valid script");

    let completions = |reply: &[u8]| {
        decode_responses(reply)
            .expect("well-formed")
            .into_iter()
            .filter_map(|r| match r {
                Response::BatchDone { completions, .. } => Some(completions),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let counters = |reply: &[u8]| {
        decode_responses(reply)
            .expect("well-formed")
            .into_iter()
            .find_map(|r| match r {
                Response::Closed { counters, .. } => Some(counters),
                _ => None,
            })
            .expect("session closed")
    };
    assert_eq!(completions(&reply_origin), completions(&reply_target));
    assert_eq!(counters(&reply_origin), counters(&reply_target));
}

/// A hostile Memory Mode blob — a tag-array set past the cache or sets
/// out of order — sent through `Restore` gets a typed `RestoreRejected`
/// error and leaves the session exactly as it was.
#[test]
fn hostile_memory_mode_blob_is_rejected_through_restore() {
    use nvsim::serve::protocol::ErrorCode;
    use nvsim::types::snapshot::SnapshotWriter;

    /// Near-memory cache sets of one Memory Mode DIMM (1 GB of lines).
    const SETS: u64 = (1 << 30) / 64;
    /// The encoded tag-array section: set count, entries, `(set, tag, dirty)`.
    fn tag_bytes(entries: &[(u64, u64, bool)]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u64(SETS);
        w.put_usize(entries.len());
        for &(set, tag, dirty) in entries {
            w.put_u64(set);
            w.put_u64(tag);
            w.put_bool(dirty);
        }
        w.into_bytes()
    }

    let mut server = build_server(ServerConfig::with_workers(1));
    let reply = server
        .run_script(&encode(&[
            open(1, BackendKind::VansMemoryMode, OpenOptions::default()),
            Command::Batch {
                sid: 1,
                reqs: vec![
                    RequestDesc::load(Addr::new(77 * 64)),
                    RequestDesc::store(Addr::new(300 * 64)),
                ],
            },
            Command::Save { sid: 1 },
        ]))
        .expect("valid script");
    let blob = match &decode_responses(&reply).expect("responses decode")[2] {
        Response::SnapshotBlob { blob, .. } => blob.clone(),
        other => panic!("expected SnapshotBlob, got {other:?}"),
    };
    let tags = tag_bytes(&[(77, 0, false), (300, 0, true)]);
    let at = blob
        .windows(tags.len())
        .position(|w| w == tags.as_slice())
        .expect("the blob holds the two-entry tag array");

    for entries in [
        [(77, 0, false), (SETS, 0, true)],
        [(300, 0, true), (77, 0, false)],
        [(77, 0, false), (77, 0, true)],
    ] {
        let mut hostile = blob[..at].to_vec();
        hostile.extend(tag_bytes(&entries));
        hostile.extend(&blob[at + tags.len()..]);
        let reply = server
            .run_script(&encode(&[
                Command::Restore {
                    sid: 1,
                    blob: hostile,
                },
                Command::Save { sid: 1 },
            ]))
            .expect("valid script");
        let rsps = decode_responses(&reply).expect("responses decode");
        match &rsps[0] {
            Response::Error { code, detail, .. } => {
                assert_eq!(*code, ErrorCode::RestoreRejected, "{entries:?}");
                assert!(detail.contains("tag-array"), "{entries:?}: {detail}");
            }
            other => panic!("{entries:?}: expected a typed error, got {other:?}"),
        }
        match &rsps[1] {
            Response::SnapshotBlob { blob: after, .. } => {
                assert_eq!(after, &blob, "{entries:?}: prior state changed")
            }
            other => panic!("expected SnapshotBlob, got {other:?}"),
        }
    }
}
