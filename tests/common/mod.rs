//! Shared by the integration tests that need to stand between the two
//! providers: a frame relay on the wire.

use bytes::Bytes;
use pp_stream_runtime::{tcp, TcpConfig};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Which way a relayed frame is travelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hop {
    ToServer,
    ToClient,
}

/// Stands where the model provider's socket is: accepts one client
/// connection, connects to `server`, and forwards frames both ways
/// through `tap`, which sees every payload and returns the one to send
/// on — the same to eavesdrop, another to play a hostile peer. Ends when
/// either side closes; join the handle after the client has shut down.
pub fn relay(
    server: SocketAddr,
    tap: impl FnMut(Hop, Bytes) -> Bytes + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("relay addr");
    let tap = Arc::new(Mutex::new(tap));
    let handle = std::thread::spawn(move || {
        let (mut to_client, mut from_client) =
            tcp::accept_on(&listener, &TcpConfig::new()).expect("accept");
        let (mut to_server, mut from_server) = tcp::connect(server).expect("connect upstream");
        let reply_tap = Arc::clone(&tap);
        let replies = std::thread::spawn(move || {
            while let Ok(Some(mut frame)) = from_server.recv() {
                frame.payload = (reply_tap.lock().unwrap())(Hop::ToClient, frame.payload);
                if to_client.send(&frame).is_err() {
                    break;
                }
            }
        });
        while let Ok(Some(mut frame)) = from_client.recv() {
            frame.payload = (tap.lock().unwrap())(Hop::ToServer, frame.payload);
            if to_server.send(&frame).is_err() {
                break;
            }
        }
        drop(to_server);
        replies.join().expect("reply relay");
    });
    (addr, handle)
}
