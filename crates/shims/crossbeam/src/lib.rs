//! Offline shim of the `crossbeam` API surface used by this workspace:
//! bounded and unbounded MPSC channels. Implemented over
//! `std::sync::mpsc`, which has the same semantics for the
//! single-consumer topology the simulator uses (crossbeam's channels
//! are MPMC; nothing in-tree needs that).

#![forbid(unsafe_code)]

/// Multi-producer channels (subset of `crossbeam::channel`).
pub mod channel {
    use std::sync::mpsc;

    /// Sending half of a channel. Cloneable. One type for both
    /// flavours, as in crossbeam; std splits them.
    #[derive(Debug)]
    pub struct Sender<T>(Flavor<T>);

    #[derive(Debug)]
    enum Flavor<T> {
        Bounded(mpsc::SyncSender<T>),
        Unbounded(mpsc::Sender<T>),
    }

    // Hand-written: the derive would demand `T: Clone`, which neither
    // std sender needs.
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                Flavor::Bounded(tx) => Flavor::Bounded(tx.clone()),
                Flavor::Unbounded(tx) => Flavor::Unbounded(tx.clone()),
            })
        }
    }

    /// Receiving half of a channel.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// Error returned when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`]: either the queue is
    /// full right now, or every receiver is gone. The value comes
    /// back in both cases.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity; receivers still exist.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    /// Error returned when every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`]: either nothing
    /// arrived within the timeout, or the queue is empty *and* every
    /// sender is gone (buffered values are always delivered first).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No value arrived in time; senders still exist.
        Timeout,
        /// No value queued and every sender has been dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`]: either the queue is
    /// momentarily empty, or it is empty *and* every sender is gone
    /// (buffered values are always delivered before `Disconnected`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No value queued right now; senders still exist.
        Empty,
        /// No value queued and every sender has been dropped.
        Disconnected,
    }

    impl<T> Sender<T> {
        /// Blocks until there is room (always, when unbounded), then
        /// sends.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Flavor::Bounded(tx) => tx.send(value),
                Flavor::Unbounded(tx) => tx.send(value),
            }
            .map_err(|e| SendError(e.0))
        }

        /// Non-blocking send. An unbounded channel is never `Full`.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            match &self.0 {
                Flavor::Bounded(tx) => tx.try_send(value).map_err(|e| match e {
                    mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                    mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
                }),
                Flavor::Unbounded(tx) => {
                    tx.send(value).map_err(|e| TrySendError::Disconnected(e.0))
                }
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next value; errors when all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Blocks for the next value at most `timeout`.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Iterates until every sender is dropped.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.0.iter()
        }

        /// Iterates over the values queued right now, without blocking.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            self.0.try_iter()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = mpsc::IntoIter<T>;
        fn into_iter(self) -> Self::IntoIter {
            self.0.into_iter()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = mpsc::Iter<'a, T>;
        fn into_iter(self) -> Self::IntoIter {
            self.0.iter()
        }
    }

    /// A channel holding at most `cap` in-flight values.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Flavor::Bounded(tx)), Receiver(rx))
    }

    /// A channel that queues without limit: sends never block, and the
    /// queue costs memory only for what is in flight.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Flavor::Unbounded(tx)), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fan_in_and_close() {
        let (tx, rx) = channel::bounded::<u32>(4);
        let tx2 = tx.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..10 {
                    tx.send(i).unwrap();
                }
            });
            s.spawn(move || {
                for i in 10..20 {
                    tx2.send(i).unwrap();
                }
            });
            let mut got: Vec<u32> = rx.into_iter().collect();
            got.sort_unstable();
            assert_eq!(got, (0..20).collect::<Vec<_>>());
        });
    }

    #[test]
    fn send_fails_when_receiver_dropped() {
        let (tx, rx) = channel::bounded::<u8>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn try_send_reports_full_then_disconnected() {
        let (tx, rx) = channel::bounded::<u8>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(channel::TrySendError::Full(2)));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(channel::TrySendError::Disconnected(3)));
    }

    #[test]
    fn unbounded_never_fills_and_costs_nothing_up_front() {
        // Payloads are not `Clone`: the sender must not demand it.
        struct Opaque(u32);
        // A pre-allocated queue (the old stand-in was a bounded channel
        // of 2^20 slots, 32 MB initialised per call) would make this
        // loop take minutes; a real unbounded channel is a few pointers.
        let t0 = std::time::Instant::now();
        for _ in 0..10_000 {
            let _ = channel::unbounded::<[u64; 4]>();
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "unbounded() pre-allocates: 10k constructions took {:?}",
            t0.elapsed()
        );

        let (tx, rx) = channel::unbounded::<Opaque>();
        let tx2 = tx.clone();
        // More than the old stand-in's bound of 2^20, with nobody
        // receiving: neither flavour of send may block or report `Full`.
        const N: u32 = 1_100_000;
        for i in 0..N {
            if i % 2 == 0 {
                tx2.send(Opaque(i))
                    .unwrap_or_else(|_| panic!("receiver alive"));
            } else {
                assert!(tx.try_send(Opaque(i)).is_ok(), "unbounded is never Full");
            }
        }
        drop((tx, tx2));
        assert!(rx.iter().map(|o| o.0).eq(0..N), "FIFO, nothing lost");

        let (tx, rx) = channel::unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.try_send(1), Err(channel::TrySendError::Disconnected(1)));
        assert_eq!(tx.send(2), Err(channel::SendError(2)));
    }

    #[test]
    fn recv_timeout_reports_timeout_then_value_then_disconnected() {
        use std::time::Duration;
        let (tx, rx) = channel::bounded::<u8>(2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        drop(tx);
        // Buffered values drain before the disconnect surfaces.
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_recv_reports_empty_then_disconnected() {
        let (tx, rx) = channel::bounded::<u8>(2);
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        drop(tx);
        // Buffered values drain before the disconnect surfaces.
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Ok(8));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Disconnected));
    }
}
