//! The portable fallback backend: plain `recv_from`/`send_to`, one
//! datagram per call.
//!
//! This is the pre-runtime I/O model behind the runtime trait, kept for
//! non-Linux builds and as a control in the fabric differential suite
//! (batched and portable runtimes must produce the same logical rack
//! outcomes). `std` cannot poll a socket set, so [`SocketDriver::wait_group`]
//! sleeps once for at most [`MIN_WAIT`] and marks every socket ready, and a
//! zero-timeout receive is a non-blocking sweep. A receive that must wait
//! blocks on `SO_RCVTIMEO`, which Linux rounds up to a whole jiffy — fine
//! for a client waiting on a reply, ruinous for a host probing idle sockets
//! once per sweep, so the host never does.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

use super::{IoOutcome, RecvRing, SendRing, SocketDriver, MIN_WAIT};

#[derive(Default)]
pub(crate) struct PortableDriver {
    /// The descriptor this driver last left in nonblocking mode, so a host
    /// sweeping its own socket sets the mode once, not every pass. Only a
    /// blocking receive through this driver leaves that mode, and it
    /// clears this first. Assumes no descriptor is closed and reused
    /// while the driver lives (a host's drivers and sockets share one
    /// lifetime). Never set off Unix, where the mode is set every sweep.
    nonblocking: Option<i64>,
}

/// An empty socket, an expired timeout or a signal: nothing received.
fn is_empty(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

impl SocketDriver for PortableDriver {
    fn backend(&self) -> &'static str {
        "portable"
    }

    fn recv_batch(
        &mut self,
        sock: &UdpSocket,
        ring: &mut RecvRing,
        timeout: Duration,
    ) -> io::Result<IoOutcome> {
        ring.set_len(0);
        #[cfg(unix)]
        let key = Some(i64::from(std::os::unix::io::AsRawFd::as_raw_fd(sock)));
        #[cfg(not(unix))]
        let key = None;
        let mut syscalls = 0u64;
        let mut count = 0usize;
        if !timeout.is_zero() {
            // Block for the first datagram only.
            self.nonblocking = None;
            sock.set_nonblocking(false)?;
            sock.set_read_timeout(Some(timeout))?;
            syscalls += 3;
            match sock.recv_from(ring.slot_mut(0)) {
                Ok((len, src)) => ring.commit(0, len, src),
                Err(e) if is_empty(&e) => {
                    return Ok(IoOutcome {
                        packets: 0,
                        syscalls,
                        ..Default::default()
                    })
                }
                Err(e) => return Err(e),
            }
            count = 1;
        }
        // Drain whatever else is already queued without blocking.
        if count < ring.capacity() {
            if key.is_none() || self.nonblocking != key {
                sock.set_nonblocking(true)?;
                self.nonblocking = key;
                syscalls += 1;
            }
            while count < ring.capacity() {
                syscalls += 1;
                match sock.recv_from(ring.slot_mut(count)) {
                    Ok((len, src)) => {
                        ring.commit(count, len, src);
                        count += 1;
                    }
                    Err(e) if is_empty(&e) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        ring.set_len(count);
        Ok(IoOutcome {
            packets: count,
            syscalls,
            ..Default::default()
        })
    }

    fn send_batch(&mut self, sock: &UdpSocket, ring: &mut SendRing) -> io::Result<IoOutcome> {
        let count = ring.len();
        let mut sent = 0usize;
        for i in 0..count {
            let (frame, dst) = ring.frame(i);
            // Per-datagram delivery failures are UDP business as usual;
            // the retransmission machinery above owns recovery.
            if sock.send_to(frame, dst).is_ok() {
                sent += 1;
            }
        }
        ring.clear();
        Ok(IoOutcome {
            packets: sent,
            syscalls: count as u64,
            ..Default::default()
        })
    }

    fn wait_group(
        &mut self,
        socks: &[&UdpSocket],
        timeout: Duration,
        ready: &mut Vec<usize>,
    ) -> io::Result<()> {
        if !timeout.is_zero() {
            std::thread::sleep(timeout.min(MIN_WAIT));
        }
        ready.clear();
        ready.extend(0..socks.len());
        Ok(())
    }
}
