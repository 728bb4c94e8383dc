//! A sleeping thread's doorbell.
//!
//! Every control thread of a fleet node (a relay's export scheduler, a
//! site's shipper) sleeps until something happens or a deadline its
//! own state computes comes due, never on a fixed tick. [`Wake`] is
//! what the threads with news ring: the relay ingest path after it
//! applies a frame, the shipper's reader thread after an ack or when
//! its connection closes, a reload, the lane merger after it ships a
//! frame, and stop.
//!
//! It is level-triggered: news that arrives while the sleeper is busy
//! stays pending until its next wait, so nothing is lost between "I
//! looked" and "I sleep".

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

#[derive(Debug, Default)]
struct State {
    /// Something happened since the sleeper last woke.
    news: bool,
    /// The sleeper must exit; every wait returns at once from now on.
    stopped: bool,
}

/// A shared wake-up signal (see the module docs). Clones ring the same
/// bell.
#[derive(Debug, Clone, Default)]
pub struct Wake {
    inner: Arc<(Mutex<State>, Condvar)>,
}

impl Wake {
    /// A fresh bell: no news, not stopped.
    pub fn new() -> Wake {
        Wake::default()
    }

    /// Records news and wakes the sleeper.
    pub fn notify(&self) {
        let (lock, cv) = &*self.inner;
        lock.lock().expect("wake lock").news = true;
        cv.notify_all();
    }

    /// Tells the sleeper to exit: the current wait and every later one
    /// return `false` at once.
    pub fn stop(&self) {
        let (lock, cv) = &*self.inner;
        lock.lock().expect("wake lock").stopped = true;
        cv.notify_all();
    }

    /// Whether [`Wake::stop`] was called (long work asks, to end early).
    pub fn is_stopped(&self) -> bool {
        self.inner.0.lock().expect("wake lock").stopped
    }

    /// Sleeps until news, stop, or `deadline` (`None`: no deadline),
    /// and consumes the news. Returns `false` once stopped.
    pub fn wait(&self, deadline: Option<Instant>) -> bool {
        self.sleep(deadline, true)
    }

    /// Sleeps until `deadline` or stop, ignoring news, then consumes
    /// whatever news arrived meanwhile — the work the caller does next
    /// serves it. Returns `false` once stopped.
    pub fn sleep_until(&self, deadline: Instant) -> bool {
        self.sleep(Some(deadline), false)
    }

    fn sleep(&self, deadline: Option<Instant>, on_news: bool) -> bool {
        let (lock, cv) = &*self.inner;
        let mut st = lock.lock().expect("wake lock");
        loop {
            if st.stopped {
                return false;
            }
            if on_news && st.news {
                break;
            }
            match deadline {
                None => st = cv.wait(st).expect("wake lock"),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        break;
                    }
                    st = cv.wait_timeout(st, at - now).expect("wake lock").0;
                }
            }
        }
        st.news = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn news_before_the_wait_is_not_lost() {
        let w = Wake::new();
        w.notify();
        // Would block forever if the news had been dropped.
        assert!(w.wait(None));
        // Consumed: a deadline in the past returns without news.
        assert!(w.wait(Some(Instant::now())));
    }

    #[test]
    fn another_thread_wakes_a_sleeper_without_a_deadline() {
        let w = Wake::new();
        let ringer = w.clone();
        let t = std::thread::spawn(move || ringer.notify());
        assert!(w.wait(None));
        t.join().unwrap();
    }

    #[test]
    fn stop_ends_every_wait() {
        let w = Wake::new();
        let stopper = w.clone();
        let t = std::thread::spawn(move || stopper.stop());
        assert!(!w.wait(None));
        t.join().unwrap();
        assert!(!w.sleep_until(Instant::now() + Duration::from_secs(3_600)));
        assert!(!w.wait(Some(Instant::now())));
    }

    #[test]
    fn sleep_until_ignores_news_then_consumes_it() {
        let w = Wake::new();
        w.notify();
        let at = Instant::now() + Duration::from_millis(5);
        assert!(w.sleep_until(at));
        assert!(Instant::now() >= at, "news did not cut the sleep short");
        assert!(w.wait(Some(Instant::now())), "deadline already passed");
    }
}
