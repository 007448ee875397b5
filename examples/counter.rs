//! A non-KV state machine over live TCP replication — proof that the
//! `StateMachine` trait is actually generic.
//!
//! ```text
//! cargo run --example counter
//! ```
//!
//! Everything application-specific lives in this file: a `Counter`
//! machine with its own operation and response types and hand-rolled wire
//! codecs, never touched by any workspace crate. The same
//! `LiveSmrBuilder` / `SmrClient` stack that serves the reference KV
//! store boots a four-replica TCP cluster around it, applies typed
//! operations through consensus, and serves reads at all three
//! consistency tiers.

use probft::core::wire::{put, Reader, Wire, WireError};
use probft::runtime::LiveSmrBuilder;
use probft::smr::{Consistency, StateMachine};
use std::fmt;

/// A replicated counter: add, reset, and read the running total.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counter {
    total: i64,
    ops: u64,
}

/// Operations on the counter.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CounterOp {
    /// Add `delta` (may be negative) to the total.
    Add(i64),
    /// Reset the total to zero.
    Reset,
    /// Observe the total (the read operation).
    Get,
}

/// Every operation answers with the total it observed (for `Add` and
/// `Reset`, the total *after* executing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Total(i64);

impl Wire for CounterOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CounterOp::Add(delta) => {
                out.push(1);
                put::u64(out, *delta as u64);
            }
            CounterOp::Reset => out.push(2),
            CounterOp::Get => out.push(3),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            1 => Ok(CounterOp::Add(r.u64()? as i64)),
            2 => Ok(CounterOp::Reset),
            3 => Ok(CounterOp::Get),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

impl fmt::Display for CounterOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterOp::Add(delta) => write!(f, "ADD {delta}"),
            CounterOp::Reset => f.write_str("RESET"),
            CounterOp::Get => f.write_str("GET"),
        }
    }
}

impl Wire for Total {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.0 as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Total(r.u64()? as i64))
    }
}

// The machine's own wire codec doubles as its checkpoint format: the
// default `StateMachine::snapshot`/`restore` use exactly this, so the
// counter is checkpointable and state-transferable for free.
impl Wire for Counter {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.total as u64);
        put::u64(out, self.ops);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Counter {
            total: r.u64()? as i64,
            ops: r.u64()?,
        })
    }
}

impl StateMachine for Counter {
    type Op = CounterOp;
    type Response = Total;

    fn apply(&mut self, op: &CounterOp) -> Total {
        match op {
            CounterOp::Add(delta) => {
                self.total += delta;
                self.ops += 1;
            }
            CounterOp::Reset => {
                self.total = 0;
                self.ops += 1;
            }
            CounterOp::Get => {}
        }
        Total(self.total)
    }

    fn query(&self, _op: &CounterOp) -> Total {
        // Reads never mutate: whatever the operation, observe the total.
        Total(self.total)
    }
}

fn main() {
    let n = 4;
    println!("Booting a live {n}-replica cluster replicating a Counter (not a KV store)\n");
    let cluster = LiveSmrBuilder::<Counter>::for_machine(n)
        .seed(23)
        .pipeline_depth(4)
        .batch_size(4)
        // Checkpoint every 4 applied slots: the counter's wire codec is
        // its snapshot format, so truncation and state transfer need no
        // extra application code.
        .checkpoint_interval(4)
        .start()
        .expect("cluster boots");

    // Start at a follower so the redirect path is exercised too.
    let mut client = cluster.client(1).leader_hint(1);

    assert_eq!(
        client.submit(CounterOp::Add(10)).expect("applied"),
        Total(10)
    );
    assert_eq!(
        client.submit(CounterOp::Add(-3)).expect("applied"),
        Total(7)
    );
    println!("two typed ADD responses confirmed the running total: 10, then 7");

    // Reads at all three consistency tiers. The linearizable read is
    // ordered through the log, so it must observe the just-applied total;
    // the cheap tiers may lag but still answer with a real total.
    let linearizable = client
        .read(CounterOp::Get, Consistency::Linearizable)
        .expect("ordered read");
    assert_eq!(
        linearizable,
        Total(7),
        "log-ordered read sees the last write"
    );
    let leader = client
        .read(CounterOp::Get, Consistency::Leader)
        .expect("leader read");
    let local = client
        .read(CounterOp::Get, Consistency::Local)
        .expect("local read");
    println!(
        "reads — linearizable: {}, leader: {}, local: {} \
         (redirects followed: {})",
        linearizable.0,
        leader.0,
        local.0,
        client.redirects(),
    );

    assert_eq!(client.submit(CounterOp::Reset).expect("applied"), Total(0));
    assert_eq!(client.submit(CounterOp::Add(5)).expect("applied"), Total(5));

    let reports = cluster.shutdown();
    for report in &reports {
        println!(
            "replica {}: log={} resident entries (+{} truncated), total={}, \
             write ops={}, checkpoints={}",
            report.id,
            report.log.len(),
            report.log_offset,
            report.state.total,
            report.state.ops,
            report.metrics.counter("checkpoints_taken"),
        );
    }
    let first = &reports[0];
    assert!(
        reports
            .iter()
            .all(|r| r.total_log_len() == first.total_log_len()
                && r.log_digest == first.log_digest),
        "identical logical logs everywhere"
    );
    assert!(
        reports.iter().all(|r| r.state == first.state),
        "identical counters everywhere"
    );
    assert_eq!(first.state.total, 5);
    assert_eq!(first.state.ops, 4, "4 writes; reads executed none");

    println!("\nA non-KV StateMachine replicated over real TCP, typed end to end ✓");
}
