//! Async call surface over a blocking [`StorageRuntime`] backend: a
//! task awaiting a KV get or a put acknowledgement yields its worker
//! instead of blocking it.
//!
//! The backends of this crate are deliberately synchronous — the SRI
//! (`StorageRuntime`) mirrors the paper's blocking storage interface.
//! [`AsyncStorage`] layers a service thread in front of any backend:
//! requests travel over a channel, the service thread performs the
//! blocking call, and the reply lands in a
//! [`oneshot`](continuum_platform::oneshot) cell whose receiver is the
//! future the caller awaits. A parked caller costs one waker clone;
//! the only thread involved is the single service thread, shared by
//! every in-flight request.
//!
//! The handle is executor-agnostic (it speaks `std::task::Waker`), so
//! it works under the runtime's M:N workers, a hand-rolled poll loop,
//! or any other executor.

#![deny(clippy::await_holding_lock)]

use crate::error::StorageError;
use crate::interface::{ObjectKey, StorageRuntime, StoredValue};
use continuum_platform::oneshot::{self, OneshotReceiver, OneshotSender};
use continuum_platform::NodeId;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread;

/// A pending reply from the storage service thread. Resolves to `None`
/// only if the service thread died before answering (the handle was
/// dropped mid-call).
pub type StorageReply<T> = OneshotReceiver<T>;

enum Req {
    Put {
        key: ObjectKey,
        value: StoredValue,
        hint: Option<NodeId>,
        reply: OneshotSender<Result<Vec<NodeId>, StorageError>>,
    },
    Get {
        key: ObjectKey,
        reply: OneshotSender<Result<StoredValue, StorageError>>,
    },
    Locations {
        key: ObjectKey,
        reply: OneshotSender<Result<Vec<NodeId>, StorageError>>,
    },
    Contains {
        key: ObjectKey,
        reply: OneshotSender<bool>,
    },
    Delete {
        key: ObjectKey,
    },
    Shutdown,
}

/// Asynchronous handle over a blocking storage backend.
///
/// # Example
///
/// ```
/// use continuum_platform::NodeId;
/// use continuum_storage::{AsyncStorage, KvStore, KvConfig, ObjectKey, StoredValue};
/// use std::sync::Arc;
///
/// let nodes: Vec<NodeId> = (0..3).map(NodeId::from_raw).collect();
/// let store = Arc::new(KvStore::new(nodes, KvConfig::default()).unwrap());
/// let handle = AsyncStorage::new(store);
/// let put = handle.put(ObjectKey::new("k"), StoredValue::blob(vec![1, 2]), None);
/// // `put` is a Future; in a sync context, drive it with a poll loop
/// // or await it inside an async task body.
/// # let _ = put;
/// ```
pub struct AsyncStorage {
    tx: Sender<Req>,
    service: Option<thread::JoinHandle<()>>,
}

impl AsyncStorage {
    /// Wraps `store` with a service thread and returns the async
    /// handle.
    pub fn new(store: Arc<dyn StorageRuntime>) -> Self {
        let (tx, rx) = mpsc::channel::<Req>();
        let service = thread::Builder::new()
            .name("continuum-storage-async".to_string())
            .spawn(move || {
                while let Ok(req) = rx.recv() {
                    match req {
                        Req::Put {
                            key,
                            value,
                            hint,
                            reply,
                        } => {
                            reply.send(store.put(key, value, hint));
                        }
                        Req::Get { key, reply } => {
                            reply.send(store.get(&key));
                        }
                        Req::Locations { key, reply } => {
                            reply.send(store.locations(&key));
                        }
                        Req::Contains { key, reply } => {
                            reply.send(store.contains(&key));
                        }
                        Req::Delete { key } => store.delete(&key),
                        Req::Shutdown => break,
                    }
                }
            })
            .expect("spawn storage service thread");
        AsyncStorage {
            tx,
            service: Some(service),
        }
    }

    /// Async [`StorageRuntime::put`]: awaits the replica set.
    pub fn put(
        &self,
        key: ObjectKey,
        value: StoredValue,
        hint: Option<NodeId>,
    ) -> StorageReply<Result<Vec<NodeId>, StorageError>> {
        let (reply, rx) = oneshot::channel();
        let _ = self.tx.send(Req::Put {
            key,
            value,
            hint,
            reply,
        });
        rx
    }

    /// Async [`StorageRuntime::get`].
    pub fn get(&self, key: ObjectKey) -> StorageReply<Result<StoredValue, StorageError>> {
        let (reply, rx) = oneshot::channel();
        let _ = self.tx.send(Req::Get { key, reply });
        rx
    }

    /// Async [`StorageRuntime::locations`] (the paper's
    /// `getLocations`).
    pub fn locations(&self, key: ObjectKey) -> StorageReply<Result<Vec<NodeId>, StorageError>> {
        let (reply, rx) = oneshot::channel();
        let _ = self.tx.send(Req::Locations { key, reply });
        rx
    }

    /// Async [`StorageRuntime::contains`].
    pub fn contains(&self, key: ObjectKey) -> StorageReply<bool> {
        let (reply, rx) = oneshot::channel();
        let _ = self.tx.send(Req::Contains { key, reply });
        rx
    }

    /// Fire-and-forget [`StorageRuntime::delete`].
    pub fn delete(&self, key: ObjectKey) {
        let _ = self.tx.send(Req::Delete { key });
    }
}

impl Drop for AsyncStorage {
    fn drop(&mut self) {
        // Queued requests still drain — Shutdown sits behind them. Any
        // reply cell the service thread never reaches resolves to
        // `None` when its sender is dropped with the queue.
        let _ = self.tx.send(Req::Shutdown);
        if let Some(h) = self.service.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for AsyncStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AsyncStorage")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvConfig, KvStore};

    #[test]
    fn round_trip_through_the_service_thread() {
        let nodes = (0..3).map(continuum_platform::NodeId::from_raw).collect();
        let store = Arc::new(KvStore::new(nodes, KvConfig::default()).unwrap());
        let handle = AsyncStorage::new(store);
        let key = ObjectKey::new("async-k");
        let nodes = handle
            .put(key.clone(), StoredValue::blob(vec![1, 2, 3]), None)
            .wait()
            .expect("service alive")
            .expect("put ok");
        assert!(!nodes.is_empty());
        assert!(handle.contains(key.clone()).wait().expect("service alive"));
        let v = handle
            .get(key.clone())
            .wait()
            .expect("service alive")
            .expect("get ok");
        assert_eq!(v.size(), 3);
        handle.delete(key.clone());
        // Delete is queued ahead of this get on the same channel.
        let missing = handle.get(key).wait().expect("service alive");
        assert!(matches!(missing, Err(StorageError::NotFound(_))));
    }

    #[test]
    fn dropping_the_handle_resolves_pending_replies() {
        let nodes = (0..3).map(continuum_platform::NodeId::from_raw).collect();
        let store = Arc::new(KvStore::new(nodes, KvConfig::default()).unwrap());
        let handle = AsyncStorage::new(store);
        let rx = handle.get(ObjectKey::new("never-stored"));
        drop(handle);
        // The request either ran (NotFound) or was dropped unanswered
        // (None) — both resolve; nothing hangs.
        match rx.wait() {
            None | Some(Err(_)) => {}
            Some(Ok(_)) => panic!("value for a key never stored"),
        }
    }
}
