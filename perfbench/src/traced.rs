//! A timing decorator over a [`StoreFactory`] and the machines it spawns.
//!
//! Every [`ReplicaMachine`] method is forwarded to the wrapped machine,
//! defaulted ones included, so a traced run executes exactly the program
//! an untraced run does: the decorator only adds clock reads around the
//! calls. The store layer's calls are grouped into five spans:
//!
//! | span          | methods                                                    |
//! |---------------|------------------------------------------------------------|
//! | `do`          | `do_op`                                                    |
//! | `send`        | `pending_message`, `on_send`                               |
//! | `recv`        | `on_receive`                                               |
//! | `clone`       | `boxed_clone`                                              |
//! | `fingerprint` | `state_fingerprint`, `converged_fingerprint`, `state_bits`, `state_fingerprint_renamed`, `payload_fingerprint_renamed` |

use haec_model::{
    DoOutcome, ObjectId, Op, Payload, ReplicaId, ReplicaMachine, StoreConfig, StoreFactory,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Calls into one span and the wall time they took.
#[derive(Clone, Copy, Default, Debug)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
}

impl Span {
    /// Charges one call that started at `t0`.
    pub fn charge(&mut self, t0: Instant) {
        self.calls += 1;
        self.ns += t0.elapsed().as_nanos() as u64;
    }

    /// Seconds spent inside the span's calls.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// What the decorator recorded since the last [`TracedFactory::take`].
#[derive(Clone, Default, Debug)]
pub struct Ledger {
    /// `do_op`.
    pub do_op: Span,
    /// `pending_message` and `on_send`.
    pub send: Span,
    /// `on_receive`.
    pub recv: Span,
    /// `boxed_clone`.
    pub clone: Span,
    /// Fingerprints and state-size queries.
    pub fingerprint: Span,
    /// Duration of every `do_op` call, in nanoseconds.
    pub do_ns: Vec<u64>,
    /// Σ |`DoOutcome::visible`| over all `do_op` calls.
    pub witness_dots: u64,
    /// Σ bits of the payloads `pending_message` returned.
    pub send_bits: u64,
}

impl Ledger {
    /// Total seconds spent inside the store layer.
    pub fn secs(&self) -> f64 {
        [
            self.do_op,
            self.send,
            self.recv,
            self.clone,
            self.fingerprint,
        ]
        .iter()
        .map(Span::secs)
        .sum()
    }
}

type Shared = Arc<Mutex<Ledger>>;

fn lock(ledger: &Shared) -> MutexGuard<'_, Ledger> {
    ledger
        .lock()
        .expect("ledger lock is never held across a panic")
}

/// Wraps `inner` so every machine it spawns records into one ledger.
pub struct TracedFactory<'a> {
    inner: &'a dyn StoreFactory,
    ledger: Shared,
}

impl<'a> TracedFactory<'a> {
    /// A decorator over `inner` with an empty ledger.
    pub fn new(inner: &'a dyn StoreFactory) -> Self {
        TracedFactory {
            inner,
            ledger: Shared::default(),
        }
    }

    /// Returns the ledger recorded so far and starts a fresh one.
    pub fn take(&self) -> Ledger {
        std::mem::take(&mut *lock(&self.ledger))
    }
}

impl StoreFactory for TracedFactory<'_> {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        Box::new(TracedMachine {
            inner: self.inner.spawn(replica, config),
            ledger: Arc::clone(&self.ledger),
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct TracedMachine {
    inner: Box<dyn ReplicaMachine>,
    ledger: Shared,
}

impl TracedMachine {
    /// Charges the call that started at `t0` to the span `pick` selects,
    /// then lets `note` add to the ledger, given the call's duration.
    fn record_with(
        &self,
        pick: fn(&mut Ledger) -> &mut Span,
        t0: Instant,
        note: impl FnOnce(&mut Ledger, u64),
    ) {
        // Read the clock before taking the lock, so the span excludes it.
        let ns = t0.elapsed().as_nanos() as u64;
        let mut ledger = lock(&self.ledger);
        let span = pick(&mut ledger);
        span.calls += 1;
        span.ns += ns;
        note(&mut ledger, ns);
    }

    fn record(&self, pick: fn(&mut Ledger) -> &mut Span, t0: Instant) {
        self.record_with(pick, t0, |_, _| {});
    }
}

impl ReplicaMachine for TracedMachine {
    fn do_op(&mut self, obj: ObjectId, op: &Op) -> DoOutcome {
        let t0 = Instant::now();
        let out = self.inner.do_op(obj, op);
        self.record_with(
            |l| &mut l.do_op,
            t0,
            |l, ns| {
                l.do_ns.push(ns);
                l.witness_dots += out.visible.len() as u64;
            },
        );
        out
    }

    fn pending_message(&self) -> Option<Payload> {
        let t0 = Instant::now();
        let out = self.inner.pending_message();
        self.record_with(
            |l| &mut l.send,
            t0,
            |l, _| {
                l.send_bits += out.as_ref().map_or(0, |p| p.bits() as u64);
            },
        );
        out
    }

    fn on_send(&mut self) {
        let t0 = Instant::now();
        self.inner.on_send();
        self.record(|l| &mut l.send, t0);
    }

    fn on_receive(&mut self, payload: &Payload) {
        let t0 = Instant::now();
        self.inner.on_receive(payload);
        self.record(|l| &mut l.recv, t0);
    }

    fn state_fingerprint(&self) -> u64 {
        let t0 = Instant::now();
        let out = self.inner.state_fingerprint();
        self.record(|l| &mut l.fingerprint, t0);
        out
    }

    fn converged_fingerprint(&self) -> u64 {
        let t0 = Instant::now();
        let out = self.inner.converged_fingerprint();
        self.record(|l| &mut l.fingerprint, t0);
        out
    }

    fn boxed_clone(&self) -> Box<dyn ReplicaMachine> {
        let t0 = Instant::now();
        let inner = self.inner.boxed_clone();
        self.record(|l| &mut l.clone, t0);
        Box::new(TracedMachine {
            inner,
            ledger: Arc::clone(&self.ledger),
        })
    }

    fn state_bits(&self) -> usize {
        let t0 = Instant::now();
        let out = self.inner.state_bits();
        self.record(|l| &mut l.fingerprint, t0);
        out
    }

    fn state_fingerprint_renamed(&self, perm: &[u32]) -> Option<u64> {
        let t0 = Instant::now();
        let out = self.inner.state_fingerprint_renamed(perm);
        self.record(|l| &mut l.fingerprint, t0);
        out
    }

    fn payload_fingerprint_renamed(&self, payload: &Payload, perm: &[u32]) -> Option<u64> {
        let t0 = Instant::now();
        let out = self.inner.payload_fingerprint_renamed(payload, perm);
        self.record(|l| &mut l.fingerprint, t0);
        out
    }
}
