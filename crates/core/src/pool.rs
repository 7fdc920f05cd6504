//! The workspace's one batch fan-out: a scoped worker pool with lazy,
//! bounded production, streamed rows, and input-order results — plus the
//! one panic-isolation helper every per-row and per-job failure goes
//! through.
//!
//! Worlds are `!Send` single-threaded simulators, so every sweep has the
//! same shape: the calling thread produces items in order (a
//! configuration, a forked world, a grid cell), scoped workers turn each
//! into a row, and rows stream back to a callback on the calling thread.
//! The seed sweeps ([`crate::try_run_configs_streamed`]), scenario trees
//! ([`crate::run_suffixes_streamed`]) and CRN defense grids
//! (`scenario::run_grid_streamed`) are thin callers of [`run`]; `ddosim
//! serve` keeps its own long-lived workers (its jobs arrive while it
//! runs) but isolates each job with [`isolate`].

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once, PoisonError};

/// Worker count for `n` items: available parallelism (4 if unknown),
/// capped at the number of items (at least 1).
fn threads(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(n.max(1))
}

/// Runs `work(i, item)` for every item across a scoped worker pool and
/// returns the rows in input order.
///
/// The calling thread pulls items from `items` one at a time and hands
/// them to the workers through a queue bounded at the worker count, so
/// at most `2 × threads + 1` items exist at once (one in the producer's
/// hand, `threads` queued, `threads` being worked on): an iterator that
/// forks a world per item holds O(threads) worlds, not O(items).
/// `on_row(i, row)` fires on the calling thread as each row finishes
/// (completion order); finished rows are delivered before every
/// hand-off, not only after the last item is produced. Returning the
/// rows after a no-op callback is the batch form, so a streamed row is
/// byte-identical to the batch row for the same items.
///
/// `work` should isolate its own panics (see [`isolate`]) so one bad
/// row costs only that row; an unisolated panic kills its worker and is
/// re-raised on the calling thread once the other workers are joined.
pub fn run<I: Send, R: Send>(
    items: impl IntoIterator<IntoIter: ExactSizeIterator<Item = I>>,
    work: impl Fn(usize, I) -> R + Sync,
    mut on_row: impl FnMut(usize, &R),
) -> Vec<R> {
    let items = items.into_iter();
    let n = items.len();
    let threads = threads(n);
    let mut rows: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut deliver = |(i, row): (usize, R)| {
        on_row(i, &row);
        rows[i] = Some(row);
    };
    // Each worker shares the receiving end; when the last worker exits
    // (all of them panicked), the receiver drops and the producer's send
    // fails instead of blocking forever on a full queue.
    let (item_tx, item_rx) = mpsc::sync_channel::<(usize, I)>(threads);
    let item_rx = Arc::new(Mutex::new(item_rx));
    let (row_tx, row_rx) = mpsc::channel::<(usize, R)>();
    // Items produced but not yet worked off, and their high-water mark:
    // what the bounded hand-off caps, read back by the lazy-forking tests.
    #[cfg(test)]
    let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (item_rx, row_tx, work) = (Arc::clone(&item_rx), row_tx.clone(), &work);
            #[cfg(test)]
            let in_flight = &in_flight;
            scope.spawn(move || loop {
                // The lock is held only across recv: one worker waits on
                // the queue, the rest wait on the lock.
                let next = item_rx
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv();
                let Ok((i, item)) = next else { break };
                let row = work(i, item);
                #[cfg(test)]
                in_flight.fetch_sub(1, Ordering::Relaxed);
                if row_tx.send((i, row)).is_err() {
                    break;
                }
            });
        }
        // The workers hold the remaining ends: the row stream ends exactly
        // when the last worker exits.
        drop((item_rx, row_tx));
        for (i, item) in items.enumerate() {
            #[cfg(test)]
            peak.fetch_max(
                in_flight.fetch_add(1, Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
            while let Ok(row) = row_rx.try_recv() {
                deliver(row);
            }
            if item_tx.send((i, item)).is_err() {
                break;
            }
        }
        drop(item_tx);
        for row in row_rx {
            deliver(row);
        }
    });
    #[cfg(test)]
    tests::LAST_PEAK_IN_FLIGHT.set(peak.into_inner());
    rows.into_iter()
        .map(|row| row.expect("every item produced a row"))
        .collect()
}

thread_local! {
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

static INSTALL_LOCATION_HOOK: Once = Once::new();

/// Runs `f`, turning a panic into `Err("panicked at file:line: message")`
/// so the caller can prefix its row or job name (`run 3 panicked at …`).
///
/// `catch_unwind` only yields the payload; the location lives in the
/// panic hook's info, so the first call installs (process-wide, chaining
/// to the previous hook) a hook that remembers the panicking thread's
/// last `file:line`. Without a captured location the text is
/// `panicked: message`.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    INSTALL_LOCATION_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let loc = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()));
            LAST_PANIC_LOCATION.with(|c| *c.borrow_mut() = loc);
            prev(info);
        }));
    });
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let location = LAST_PANIC_LOCATION
            .with(|c| c.borrow_mut().take())
            .map(|l| format!(" at {l}"))
            .unwrap_or_default();
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        format!("panicked{location}: {message}")
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        pub(super) static LAST_PEAK_IN_FLIGHT: Cell<usize> = const { Cell::new(0) };
    }

    /// The most items in flight at once during this thread's last [`run`]
    /// — for a suffix sweep, the most forked worlds alive at once.
    pub(crate) fn last_peak_in_flight() -> usize {
        LAST_PEAK_IN_FLIGHT.with(Cell::get)
    }

    pub(crate) fn pool_threads() -> usize {
        threads(usize::MAX)
    }

    /// A trivial work function: later items finish sooner, so completion
    /// order differs from input order.
    fn square(i: usize, x: usize) -> usize {
        std::thread::sleep(Duration::from_micros(((i % 4) as u64 ^ 3) * 200));
        x * x
    }

    #[test]
    fn rows_come_back_in_input_order_for_any_count() {
        for n in [0, 1, pool_threads() * 3 + 1] {
            let mut streamed = vec![None; n];
            let rows = run(0..n, square, |i, row| {
                assert!(
                    streamed[i].replace(*row).is_none(),
                    "row {i} delivered twice"
                );
            });
            let expected: Vec<usize> = (0..n).map(|x| x * x).collect();
            assert_eq!(rows, expected);
            assert_eq!(streamed, expected.into_iter().map(Some).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_row_carries_its_location_and_neighbours_complete() {
        let rows = run(
            0..5,
            |i, x| {
                isolate(|| {
                    assert!(x != 2, "row two is poisoned");
                    square(i, x)
                })
                .map_err(|e| format!("row {i} {e}"))
            },
            |_, _| {},
        );
        for (i, row) in rows.iter().enumerate() {
            if i == 2 {
                let err = row.as_ref().expect_err("row two panics");
                assert!(err.starts_with("row 2 panicked at "), "got: {err}");
                assert!(err.contains("pool.rs:"), "location missing from: {err}");
                assert!(err.ends_with("row two is poisoned"), "got: {err}");
            } else {
                assert_eq!(row, &Ok(i * i));
            }
        }
    }

    #[test]
    fn isolate_renders_payloads_and_clears_the_location() {
        assert_eq!(isolate(|| 5), Ok(5));
        let err = isolate(|| -> u8 { panic!("boom {}", 1) }).expect_err("panics");
        assert!(
            err.starts_with("panicked at ") && err.ends_with(": boom 1"),
            "got: {err}"
        );
        let err = isolate(|| std::panic::panic_any(7u32)).expect_err("panics");
        assert!(err.ends_with(": non-string panic payload"), "got: {err}");
        assert_eq!(
            LAST_PANIC_LOCATION.with(|c| c.borrow().clone()),
            None,
            "slot is taken"
        );
    }

    #[test]
    fn hand_off_holds_at_most_threads_waiting_items() {
        // Each item is a guard counting itself alive from production to
        // the end of its work: at most `threads` wait in the queue, so at
        // most 2 × threads + 1 exist at once, however many are produced.
        struct Guard<'a>(&'a AtomicUsize);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let threads = pool_threads();
        let n = threads * 10;
        let items = (0..n).map(|_| {
            let now = live.fetch_add(1, Ordering::Relaxed) + 1;
            peak.fetch_max(now, Ordering::Relaxed);
            Guard(&live)
        });
        let rows = run(
            items,
            |i, guard| {
                std::thread::sleep(Duration::from_millis(2));
                drop(guard);
                i
            },
            |_, _| {},
        );
        assert_eq!(rows, (0..n).collect::<Vec<_>>());
        let peak = peak.load(Ordering::Relaxed);
        assert!(
            peak <= 2 * threads + 1,
            "{peak} items alive with {threads} workers"
        );
        assert!(last_peak_in_flight() <= 2 * threads + 1);
        assert_eq!(live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unisolated_panic_reaches_the_caller() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(0..pool_threads() * 4, |_, x| assert_ne!(x, 1), |_, _| {})
        }));
        assert!(outcome.is_err(), "a raw worker panic must not be swallowed");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]
        #[test]
        fn streamed_rows_are_byte_identical_to_batch(
            values in proptest::collection::vec(proptest::any::<u64>(), 0..24)
        ) {
            // Every fifth value panics: error rows must match too.
            let work = |i: usize, x: u64| {
                isolate(|| {
                    assert!(!x.is_multiple_of(5), "value {x} rejected");
                    x.wrapping_mul(31).wrapping_add(i as u64)
                })
                .map_err(|e| format!("row {i} {e}"))
            };
            let batch = run(values.clone(), work, |_, _| {});
            let mut seen: Vec<Option<Result<u64, String>>> = vec![None; values.len()];
            let streamed = run(values, work, |i, row| seen[i] = Some(row.clone()));
            proptest::prop_assert_eq!(&batch, &streamed);
            let seen: Vec<Result<u64, String>> =
                seen.into_iter().map(|r| r.expect("every row delivered")).collect();
            proptest::prop_assert_eq!(batch, seen);
        }
    }
}
