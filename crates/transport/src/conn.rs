//! Socket abstraction: one [`Endpoint`] / [`Stream`] / [`Listener`] surface
//! over Unix-domain sockets and localhost TCP, so the framing, server and
//! client layers are transport-agnostic.

use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens (and a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this filesystem path.
    Uds(PathBuf),
    /// A TCP socket (use `127.0.0.1:0` to let the OS pick a port; the bound
    /// endpoint reported by the server carries the resolved port).
    Tcp(SocketAddr),
}

impl Endpoint {
    /// A Unix-domain endpoint.
    pub fn uds(path: impl Into<PathBuf>) -> Self {
        Endpoint::Uds(path.into())
    }

    /// A TCP endpoint.
    pub fn tcp(addr: SocketAddr) -> Self {
        Endpoint::Tcp(addr)
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Uds(path) => write!(f, "uds:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// The server side of an [`Endpoint`].
#[derive(Debug)]
pub(crate) enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the endpoint, returning the listener and the *resolved*
    /// endpoint (TCP port 0 becomes the port the OS assigned).
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<(Self, Endpoint)> {
        match endpoint {
            Endpoint::Uds(path) => {
                let listener = UnixListener::bind(path)?;
                Ok((Listener::Uds(listener), endpoint.clone()))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let resolved = Endpoint::Tcp(listener.local_addr()?);
                Ok((Listener::Tcp(listener), resolved))
            }
        }
    }

    /// Accepts one connection.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Uds(listener) => {
                let (stream, _) = listener.accept()?;
                Ok(Stream::Uds(stream))
            }
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

/// One connected socket, either flavour.
#[derive(Debug)]
pub enum Stream {
    /// A Unix-domain connection.
    Uds(UnixStream),
    /// A TCP connection (Nagle disabled — the protocol is request/response).
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `endpoint`.
    ///
    /// # Errors
    ///
    /// Whatever the OS reports: `ConnectionRefused`, `NotFound` (stale UDS
    /// path), etc.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Uds(path) => Ok(Stream::Uds(UnixStream::connect(path)?)),
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }

    /// A second handle to the same socket (used by the server to force-close
    /// connections from the shutdown path).
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            Stream::Uds(s) => Ok(Stream::Uds(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    /// Sets the kernel-level timeout for any single `read` call. The
    /// per-frame budget layered on top lives in [`crate::deadline`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Sets the kernel-level timeout for any single `write` call.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_write_timeout(timeout),
            Stream::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// Closes both directions; any thread blocked on the socket wakes with
    /// an EOF or error. Errors are ignored — the socket may already be gone.
    pub fn shutdown_both(&self) {
        match self {
            Stream::Uds(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    // Forwarded so a frame's kind byte and payload arrive in one `readv`
    // (the trait's default would read into the first buffer only).
    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read_vectored(bufs),
            Stream::Tcp(s) => s.read_vectored(bufs),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    // Forwarded so a frame's header and payload leave in one `writev` (the
    // trait's default would send the first buffer only).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}
