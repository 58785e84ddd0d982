//! Typed handle for a posted receive.
//!
//! `irecv_f32` returns a [`Request`]; the message is delivered when the
//! request is passed to `wait`. Sends have no handle: they are buffered, so
//! `isend_f32` is complete when it returns. A `Request` records when it was
//! posted so backends can measure the *overlap window* — the time between
//! posting a receive and asking for its completion, which is exactly the
//! computation the solver managed to hide behind the wire.

use std::time::{Duration, Instant};

/// Handle for a posted receive matching `(src, tag)`.
///
/// Must be completed with [`crate::Communicator::wait`]; a dropped request
/// leaves its message in the pending queue, where the next receive on the
/// same `(src, tag)` will match it.
#[derive(Debug, Clone)]
pub struct Request {
    src: usize,
    tag: u32,
    posted: Instant,
}

impl Request {
    /// A receive for the next `(src, tag)` message, posted now.
    pub fn recv(src: usize, tag: u32) -> Self {
        Self {
            src,
            tag,
            posted: Instant::now(),
        }
    }

    /// The rank the message comes from.
    pub fn src(&self) -> usize {
        self.src
    }

    /// The message tag.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Time since the request was posted — at `wait` entry this is the
    /// overlap window the caller achieved.
    pub fn age(&self) -> Duration {
        self.posted.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_accessors() {
        let r = Request::recv(1, 101);
        assert_eq!(r.src(), 1);
        assert_eq!(r.tag(), 101);
        assert!(r.age() >= Duration::ZERO);
    }
}
