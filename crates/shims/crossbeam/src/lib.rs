//! Offline vendored subset of `crossbeam`.
//!
//! The build environment has no registry access, so this workspace vendors
//! the crossbeam API it uses: `crossbeam::channel` — an unbounded MPMC
//! channel with cloneable receivers, `try_recv`, and `recv_timeout` — and
//! `crossbeam::utils::Backoff`. Semantics match crossbeam for the
//! operations exercised here: senders and receivers are reference-counted,
//! and a receive on an empty channel with no live senders reports
//! disconnection.
//!
//! Every blocking wait of the runtime goes through one discipline,
//! [`utils::Backoff::snooze_or_wait`]: re-check the condition across a
//! fixed number of `yield_now` calls and only then sleep on a condvar. Channels
//! additionally count their sleepers, so a `send` wakes only a receiver
//! that is actually parked (DESIGN.md §3, "host hand-offs").

pub mod utils {
    use std::cell::Cell;
    use std::sync::{Condvar, Mutex, MutexGuard};
    use std::time::Duration;

    /// How many times a waiter yields and re-checks before it parks.
    /// Chosen by measurement (DESIGN.md §3): 5–1 000 read the same on
    /// `jacobi_barrier`, `fib_steal` wants at least 20.
    const SNOOZE_YIELDS: u32 = 50;

    /// Backoff for one blocking wait: the caller loops on its condition
    /// and calls [`Backoff::snooze_or_wait`] whenever it does not hold.
    ///
    /// Unlike the real crate's `Backoff` there is no spin phase and the
    /// limit is a count of yields: a yield returns at once when nothing
    /// else is runnable and costs one scheduling round when something is,
    /// so the count adapts to load where a spin or a time budget does not.
    #[derive(Default)]
    pub struct Backoff {
        step: Cell<u32>,
    }

    impl Backoff {
        /// A backoff with its whole snooze budget left.
        pub fn new() -> Self {
            Self::default()
        }

        /// Give up the CPU once; counts against the snooze budget.
        fn snooze(&self) {
            #[cfg(test)]
            ON_SNOOZE.with(|h| {
                if let Some(f) = h.borrow_mut().as_mut() {
                    f()
                }
            });
            std::thread::yield_now();
            self.step.set(self.step.get() + 1);
        }

        /// Whether the snooze budget is spent, so the next
        /// [`Backoff::snooze_or_wait`] sleeps.
        pub(crate) fn is_completed(&self) -> bool {
            self.step.get() >= SNOOZE_YIELDS
        }

        /// One step of a blocking wait for a condition guarded by `m` and
        /// signalled on `cv`: give up the lock and yield while there are
        /// snoozes left, sleep on `cv` (at most `timeout`, if given)
        /// after that. Either way the caller gets the lock back and
        /// re-checks its condition. A poisoned lock is taken over: the
        /// callers have their own poison protocol or none to observe.
        pub fn snooze_or_wait<'a, T>(
            &self,
            m: &'a Mutex<T>,
            cv: &Condvar,
            g: MutexGuard<'a, T>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, T> {
            if !self.is_completed() {
                drop(g);
                self.snooze();
                return m.lock().unwrap_or_else(|e| e.into_inner());
            }
            match timeout {
                None => cv.wait(g).unwrap_or_else(|e| e.into_inner()),
                Some(t) => cv.wait_timeout(g, t).unwrap_or_else(|e| e.into_inner()).0,
            }
        }
    }

    #[cfg(test)]
    thread_local! {
        /// Called at the start of every snooze of this thread, so a test
        /// can hold a waiter inside its snooze phase.
        pub(crate) static ON_SNOOZE: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
            const { std::cell::RefCell::new(None) };
    }
}

pub mod channel {
    use crate::utils::Backoff;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        /// Receivers asleep on `ready`. Changed only under the lock,
        /// immediately around the condvar wait, so a sender that reads 0
        /// after its push knows every receiver will re-check the queue
        /// before it sleeps.
        parked: usize,
        /// `notify_one` calls made by `send`.
        #[cfg(test)]
        wakes: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half of an unbounded channel (cloneable: clones share
    /// one queue, each message is delivered to exactly one receiver).
    pub struct Receiver<T>(Arc<Shared<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: wake blocked receivers so they observe the
                // disconnection.
                let _guard = self.0.inner.lock().unwrap();
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> Sender<T> {
        /// Enqueue `msg`; fails only if every receiver has been dropped.
        /// Wakes a receiver only if one is parked: a receiver that is
        /// running or snoozing finds the message on its next re-check.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(msg));
            }
            let mut g = self.0.inner.lock().unwrap();
            g.queue.push_back(msg);
            let parked = g.parked;
            #[cfg(test)]
            {
                g.wakes += usize::from(parked > 0);
            }
            drop(g);
            if parked > 0 {
                self.0.ready.notify_one();
            }
            Ok(())
        }

        #[cfg(test)]
        pub(crate) fn wakes(&self) -> usize {
            self.0.inner.lock().unwrap().wakes
        }
    }

    impl<T> Receiver<T> {
        fn disconnected(&self) -> bool {
            self.0.senders.load(Ordering::SeqCst) == 0
        }

        /// The one blocking receive: snooze, then park until `deadline`
        /// (forever if `None`). The snooze counts against the deadline.
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let backoff = Backoff::new();
            let mut g = self.0.inner.lock().unwrap();
            loop {
                if let Some(v) = g.queue.pop_front() {
                    return Ok(v);
                }
                if self.disconnected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = match deadline {
                    None => None,
                    Some(d) => match d.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => Some(left),
                        _ => return Err(RecvTimeoutError::Timeout),
                    },
                };
                // `parked` moves only when this step sleeps, under the
                // lock, immediately around the condvar wait.
                let parks = backoff.is_completed();
                g.parked += usize::from(parks);
                g = backoff.snooze_or_wait(&self.0.inner, &self.0.ready, g, left);
                g.parked -= usize::from(parks);
            }
        }

        /// Blocking receive.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        /// Receive, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_until(Some(Instant::now() + timeout))
        }

        /// Messages currently queued (diagnostics; racy by nature).
        pub fn len(&self) -> usize {
            self.0.inner.lock().unwrap().queue.len()
        }

        /// Whether the queue is currently empty (racy by nature).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Receivers currently asleep on this channel (diagnostics; racy
        /// by nature). Non-zero together with a non-empty queue that stays
        /// that way is a lost wake-up.
        pub fn parked(&self) -> usize {
            self.0.inner.lock().unwrap().parked
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut g = self.0.inner.lock().unwrap();
            match g.queue.pop_front() {
                Some(v) => Ok(v),
                None if self.disconnected() => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                parked: 0,
                #[cfg(test)]
                wakes: 0,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(shared.clone()), Receiver(shared))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use super::utils::ON_SNOOZE;
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn cloned_receiver_shares_queue() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(1u32).unwrap();
        assert_eq!(rx2.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_detected() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn timeout_elapses() {
        // The snooze is inside the deadline: neither early nor, by more
        // than scheduling slack, late.
        let (_tx, rx) = unbounded::<u8>();
        let timeout = Duration::from_millis(20);
        let t0 = Instant::now();
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        let took = t0.elapsed();
        assert!(took >= timeout, "returned after {took:?}");
        assert!(took <= timeout + Duration::from_millis(50), "took {took:?}");
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..100u64 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    /// Yield until `rx`'s channel has a parked receiver.
    fn await_parked<T>(rx: &Receiver<T>) {
        while rx.parked() == 0 {
            thread::yield_now();
        }
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        const MSGS: u64 = 200_000;
        let (to_b, b_rx) = unbounded::<u64>();
        let (to_a, a_rx) = unbounded::<u64>();
        let echo = thread::spawn(move || {
            while let Ok(v) = b_rx.recv() {
                to_a.send(v).unwrap();
            }
        });
        for i in 0..MSGS / 2 {
            to_b.send(i).unwrap();
            assert_eq!(a_rx.recv(), Ok(i));
        }
        drop(to_b);
        echo.join().unwrap();
        assert_eq!(a_rx.recv(), Err(RecvError));
    }

    #[test]
    fn fan_in_delivers_each_message_once_in_producer_order() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 50_000;
        let (tx, rx) = unbounded::<(usize, u64)>();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        tx.send((p, seq)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; PRODUCERS];
        let mut timed = false;
        loop {
            timed = !timed;
            let got = if timed {
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Err(RecvTimeoutError::Timeout) => continue,
                    r => r.ok(),
                }
            } else {
                rx.recv().ok()
            };
            let Some((p, seq)) = got else { break };
            assert_eq!(seq, next[p], "producer {p} out of order or duplicated");
            next[p] += 1;
        }
        assert_eq!(next, [PER_PRODUCER; PRODUCERS]);
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn parked_receiver_is_woken_by_send_and_by_last_sender_drop() {
        let (tx, rx) = unbounded::<u8>();
        let receiver = {
            let rx = rx.clone();
            thread::spawn(move || (rx.recv(), rx.recv()))
        };
        await_parked(&rx);
        tx.send(1).unwrap();
        assert_eq!(tx.wakes(), 1);
        // `rx.len() == 0` first: the receiver has taken the 1, so the
        // park seen next is its second `recv`.
        while !rx.is_empty() {
            thread::yield_now();
        }
        await_parked(&rx);
        drop(tx);
        assert_eq!(receiver.join().unwrap(), (Ok(1), Err(RecvError)));
        assert_eq!(rx.parked(), 0);
    }

    #[test]
    fn send_to_a_snoozing_receiver_wakes_nobody() {
        let (tx, rx) = unbounded::<u8>();
        // Both threads meet twice inside the receiver's first snooze; the
        // send happens between the two meetings.
        let snoozing = Arc::new(Barrier::new(2));
        let receiver = {
            let (rx, snoozing) = (rx.clone(), snoozing.clone());
            thread::spawn(move || {
                let mut first = true;
                ON_SNOOZE.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        if std::mem::take(&mut first) {
                            snoozing.wait();
                            snoozing.wait();
                        }
                    }))
                });
                rx.recv()
            })
        };
        snoozing.wait();
        assert_eq!(rx.parked(), 0);
        tx.send(9).unwrap();
        assert_eq!(tx.wakes(), 0);
        snoozing.wait();
        assert_eq!(receiver.join().unwrap(), Ok(9));
        assert_eq!(tx.wakes(), 0);
    }
}
