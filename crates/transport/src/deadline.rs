//! Socket deadlines: the per-frame read budget.
//!
//! This is the one module in the crate (and, outside the bench harnesses
//! and the telemetry recorder, the workspace) that reads a wall clock — its
//! two `Instant::now` calls carry the only `#[expect(clippy::disallowed_methods)]`
//! clock waivers in serving code. Socket deadlines are exactly the place where
//! real time is the *point*: a peer that stops sending mid-frame must not
//! pin a server thread, and no logical clock can observe that.
//!
//! A kernel `SO_RCVTIMEO` alone bounds each *individual* `read` call, which
//! a slow-loris peer defeats by trickling one byte per timeout window.
//! [`DeadlineReader`] therefore budgets the **total** wall time for one
//! frame: before every partial read it re-arms the kernel timeout with the
//! time remaining, so the whole frame — header and body — must land within
//! the budget or the read fails with `TimedOut` and the connection dies.

use crate::conn::Stream;
use std::io::{self, IoSliceMut, Read};
use std::time::{Duration, Instant};

/// The wall-clock budget to receive one whole frame: the client's always,
/// the server's unless [`crate::TransportConfig::read_budget`] says
/// otherwise.
pub(crate) const READ_BUDGET: Duration = Duration::from_secs(10);

/// Wraps a [`Stream`] for the duration of one frame read, enforcing a total
/// wall-clock budget across all partial reads.
#[derive(Debug)]
pub(crate) struct DeadlineReader<'a> {
    stream: &'a mut Stream,
    deadline: Instant,
}

impl<'a> DeadlineReader<'a> {
    /// Starts a frame read with `budget` of total wall time.
    #[expect(
        clippy::disallowed_methods,
        reason = "a socket read deadline is wall time by definition; it bounds I/O and never reaches round state"
    )]
    pub(crate) fn new(stream: &'a mut Stream, budget: Duration) -> Self {
        DeadlineReader {
            deadline: Instant::now() + budget,
            stream,
        }
    }
}

impl DeadlineReader<'_> {
    /// Runs one read on the stream with the kernel timeout re-armed to the
    /// budget that is left.
    #[expect(
        clippy::disallowed_methods,
        reason = "a socket read deadline is wall time by definition; it bounds I/O and never reaches round state"
    )]
    fn bounded(
        &mut self,
        read: impl FnOnce(&mut Stream) -> io::Result<usize>,
    ) -> io::Result<usize> {
        let now = Instant::now();
        // The kernel rejects a zero timeout (it means "block forever"), so
        // anything under a millisecond of budget is already an overrun.
        let remaining = self.deadline.saturating_duration_since(now);
        if remaining < Duration::from_millis(1) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame read deadline expired",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        read(self.stream).map_err(|err| {
            // Normalise the kernel's two spellings of "the timeout fired".
            if err.kind() == io::ErrorKind::WouldBlock {
                io::Error::new(io::ErrorKind::TimedOut, "frame read deadline expired")
            } else {
                err
            }
        })
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.bounded(|stream| stream.read(buf))
    }

    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        self.bounded(|stream| stream.read_vectored(bufs))
    }
}
