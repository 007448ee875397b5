//! What the root tests that drive a live cluster share: client threads
//! that hammer it, and the invariant sweep that ends every run — which,
//! when it fails, leaves every replica's flight recorder and metrics in
//! `target/nemesis/`.

#![allow(
    dead_code,
    reason = "each test binary compiles its own copy and uses a part of it"
)]

use probft::runtime::nemesis::{verify_exactly_once, verify_invariants};
use probft::runtime::{LiveSmrCluster, ReplicaReport};
use probft::smr::{Command, RequestId};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

/// Where failure artifacts land: transcripts, flight recorders, metrics.
pub fn nemesis_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/nemesis")
}

/// Runs `clients` submitter threads against `cluster`, `ops` writes
/// each, while `nemesis` runs on the calling thread. Returns the set of
/// request ids the clients saw confirmed, total overload sheds absorbed,
/// and total redirects followed. Write ids are reconstructible because
/// `SmrClient` numbers requests sequentially from 1 per client.
pub fn hammer<F>(
    cluster: &LiveSmrCluster,
    clients: u64,
    ops: u64,
    nemesis: F,
) -> (BTreeSet<RequestId>, u64, u64)
where
    F: FnOnce(),
{
    let overloads = AtomicU64::new(0);
    let redirects = AtomicU64::new(0);
    let confirmed = thread::scope(|s| {
        let handles: Vec<_> = (1..=clients)
            .map(|client_id| {
                let mut client = cluster
                    .client(client_id)
                    .leader_hint(client_id as usize - 1)
                    .timeouts(Duration::from_millis(500), Duration::from_secs(120));
                let (overloads, redirects) = (&overloads, &redirects);
                s.spawn(move || {
                    let mut ids = BTreeSet::new();
                    for i in 0..ops {
                        let tag = client_id * 10_000 + i;
                        let (key, value) = (format!("key{tag}"), format!("val{tag}"));
                        if client.submit(Command::Put { key, value }).is_ok() {
                            ids.insert(RequestId {
                                client: client_id,
                                seq: i + 1,
                            });
                        }
                    }
                    overloads.fetch_add(client.overloads(), Ordering::SeqCst);
                    redirects.fetch_add(client.redirects(), Ordering::SeqCst);
                    ids
                })
            })
            .collect();
        nemesis();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<BTreeSet<_>>()
    });
    (
        confirmed,
        overloads.load(Ordering::SeqCst),
        redirects.load(Ordering::SeqCst),
    )
}

/// Panics with the seed if the invariant sweep fails, after writing every
/// replica's flight-recorder journal — the event timeline, fault markers
/// included — and metrics snapshot to [`nemesis_dir`].
pub fn sweep(
    test: &str,
    seed: u64,
    reports: &[ReplicaReport],
    excluded: &[usize],
    confirmed: &BTreeSet<RequestId>,
) {
    let sweep = [
        verify_invariants(reports, excluded, confirmed),
        verify_exactly_once(reports, excluded),
    ];
    let violations: Vec<String> = sweep
        .into_iter()
        .filter_map(Result::err)
        .flatten()
        .collect();
    if violations.is_empty() {
        return;
    }
    let path = nemesis_dir().join(format!("{test}-seed{seed}.flight.log"));
    let _ = std::fs::create_dir_all(nemesis_dir());
    let recorders = reports.iter().map(|r| {
        let events: Vec<String> = r.journal.iter().map(ToString::to_string).collect();
        let id = r.id;
        format!(
            "=== replica {id} ===\n{}\n{}",
            events.join("\n"),
            r.metrics.to_json()
        )
    });
    let _ = std::fs::write(&path, recorders.collect::<Vec<_>>().join("\n"));
    panic!(
        "{test}: invariant sweep failed under seed {seed} (flight recorders: {}): \
         {violations:#?}",
        path.display()
    );
}
