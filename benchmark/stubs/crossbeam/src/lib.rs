//! Offline stand-in for the one `crossbeam` item this repository uses:
//! `channel::unbounded`, as `WorkerPool` uses it — one sender, many
//! cloned receivers, FIFO.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        /// The one sender (it is not `Clone` here) has been dropped.
        sender_gone: bool,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// The message could not be delivered: every receiver is gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // No `T: Debug` bound, so `send(job).expect(..)` works for closures.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// The channel is empty and the sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                sender_gone: false,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next message; fails once the queue is drained
        /// and the sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.sender_gone {
                    return Err(RecvError);
                }
                state = self
                    .shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .sender_gone = true;
            self.shared.ready.notify_all();
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_across_consumers_and_disconnect() {
            let (tx, rx) = unbounded::<u32>();
            let rx2 = rx.clone();
            let workers: Vec<_> = [rx, rx2]
                .into_iter()
                .map(|rx| {
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            for v in 0..100 {
                tx.send(v).unwrap();
            }
            drop(tx);
            let mut all: Vec<u32> = workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }
    }
}
