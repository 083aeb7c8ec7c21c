//! The one bounded collector: a [`Tap`] keeps the records of one event
//! family, up to a capacity.
//!
//! The packet [`crate::Trace`], the ingress capture, the span collector
//! and the control-plane journal are each a `Tap` of a [`Record`] type,
//! attached with `add_observer` like any other [`NetObserver`]. The
//! overflow rule is stated once, here: the kept records are the
//! **earliest** `capacity` ones, [`Tap::overflowed`] counts the rest, and
//! capacity 0 keeps nothing — so a long run's memory stays bounded.
//!
//! An edge host ([`crate::RecorderNode`]) keeps no records: it counts
//! the frames it receives, and the packets themselves are read from a
//! packet trace.

use crate::observe::{Family, NetEvent, NetObserver};
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// A record a [`Tap`] keeps: which family of events it subscribes to and
/// what it reads off one.
pub trait Record: Sized {
    /// The family the record is read off.
    const FAMILY: Family;
    /// The record `ev`, observed at `now`, carries; `None` when `ev` is
    /// of another family.
    fn of(now: SimTime, ev: &NetEvent<'_>) -> Option<Self>;
}

/// A bounded in-memory collector of one [`Record`] type.
#[derive(Debug)]
pub struct Tap<T> {
    events: Vec<T>,
    capacity: usize,
    overflowed: u64,
}

/// Shared handle to a [`Tap`]: the engine holds one side as an observer.
pub type TapHandle<T> = Rc<RefCell<Tap<T>>>;

impl<T> Tap<T> {
    /// A tap keeping at most `capacity` records.
    pub fn new(capacity: usize) -> TapHandle<T> {
        Rc::new(RefCell::new(Tap {
            events: Vec::new(),
            capacity,
            overflowed: 0,
        }))
    }

    /// The kept records, in the order they were observed.
    pub fn events(&self) -> &[T] {
        &self.events
    }

    /// Number of records kept.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no record was kept.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records of the family that arrived after the tap was full.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }
}

impl<T: Record> NetObserver for Tap<T> {
    #[inline]
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>) {
        if self.events.len() < self.capacity {
            self.events.extend(T::of(now, ev));
        } else if ev.family() == T::FAMILY {
            self.overflowed += 1;
        }
    }

    fn wants(&self, family: Family) -> bool {
        family == T::FAMILY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{CtrlEvent, JournalRecord};
    use swishmem_wire::NodeId;

    fn rec(t: u64) -> JournalRecord {
        JournalRecord {
            time: SimTime(t),
            node: NodeId(7),
            event: CtrlEvent::Learned { slot: t },
        }
    }

    /// The overflow rule, one row per capacity: offer `offered` records
    /// (plus one event of another family, which must be ignored) and
    /// check that the earliest `capacity` are kept and the rest counted.
    #[test]
    fn keeps_the_earliest_records_and_counts_the_rest() {
        // (capacity, offered, kept, overflowed)
        for (cap, offered, kept, over) in [
            (0, 3, 0, 3),
            (1, 2, 1, 1),
            (2, 3, 2, 1),
            (2, 5, 2, 3),
            (16, 5, 5, 0),
        ] {
            let h = Tap::<JournalRecord>::new(cap);
            let mut tap = h.borrow_mut();
            assert!(Family::ALL
                .iter()
                .all(|&f| tap.wants(f) == (f == Family::Journal)));
            for t in 0..offered {
                tap.on_net_event(SimTime(t), &NetEvent::Journal(rec(t)));
                let fault = NetEvent::NodeFailed { node: NodeId(1) };
                tap.on_net_event(SimTime(t), &fault);
            }
            assert_eq!(
                (tap.len(), tap.overflowed()),
                (kept, over),
                "capacity {cap}"
            );
            assert_eq!(tap.is_empty(), kept == 0);
            let times: Vec<u64> = tap.events().iter().map(|r| r.time.0).collect();
            assert_eq!(
                times,
                (0..kept as u64).collect::<Vec<_>>(),
                "capacity {cap}"
            );
        }
    }
}
