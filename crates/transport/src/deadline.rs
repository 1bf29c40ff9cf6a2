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
//! the budget or the read fails with `TimedOut` and the connection dies. On
//! the server the budget arms with the frame's first byte
//! ([`DeadlineReader::from_first_byte`]); the client's is armed from the
//! start.

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
    budget: Duration,
    /// When the frame must be complete; `None` until the budget is armed.
    deadline: Option<Instant>,
}

impl<'a> DeadlineReader<'a> {
    /// Starts a frame read with `budget` of total wall time, armed at once:
    /// a client waiting on a hung server waits at most the budget.
    pub(crate) fn new(stream: &'a mut Stream, budget: Duration) -> Self {
        let mut reader = Self::from_first_byte(stream, budget);
        reader.arm();
        reader
    }

    /// Starts a frame read whose budget arms when its first byte arrives:
    /// the wait for a frame to *start* is unbounded (an idle worker is
    /// computing, not attacking), and the frame then has the whole budget.
    pub(crate) fn from_first_byte(stream: &'a mut Stream, budget: Duration) -> Self {
        DeadlineReader {
            stream,
            budget,
            deadline: None,
        }
    }
}

impl DeadlineReader<'_> {
    #[expect(
        clippy::disallowed_methods,
        reason = "a socket read deadline is wall time by definition; it bounds I/O and never reaches round state"
    )]
    fn arm(&mut self) {
        self.deadline = Some(Instant::now() + self.budget);
    }

    /// Runs one read on the stream with the kernel timeout re-armed to the
    /// budget that is left, or with no timeout before the budget is armed.
    #[expect(
        clippy::disallowed_methods,
        reason = "a socket read deadline is wall time by definition; it bounds I/O and never reaches round state"
    )]
    fn bounded(
        &mut self,
        read: impl FnOnce(&mut Stream) -> io::Result<usize>,
    ) -> io::Result<usize> {
        let Some(deadline) = self.deadline else {
            self.stream.set_read_timeout(None)?;
            let got = read(self.stream)?;
            if got > 0 {
                self.arm();
            }
            return Ok(got);
        };
        // The kernel rejects a zero timeout (it means "block forever"), so
        // anything under a millisecond of budget is already an overrun.
        let remaining = deadline.saturating_duration_since(Instant::now());
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
