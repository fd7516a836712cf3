//! Bounded LRU cache of resident tenant evaluation state.
//!
//! A tenant's decoded key material is large (~12 MB of key-switch keys
//! at paper-scale parameters, forward-transformed into evaluation form at
//! registration), so keeping every registered tenant resident makes
//! server memory O(tenants). This cache keeps the *frames* for all
//! tenants (compact, checksummed bytes) but bounds how many decoded
//! [`Tenant`]s are alive at once: on a miss the frame is re-decoded —
//! deterministically, so the rebuilt evaluation state is bit-identical —
//! and the least-recently-used resident is dropped. Every tenant has a
//! frame (in-process registrations are encoded into one), so every slot
//! is the same kind and any resident may be evicted.
//!
//! Decode-on-miss runs **outside** the cache lock (it is milliseconds of
//! NTT work); a double-check on re-acquire keeps concurrent misses from
//! installing twice, and keys decoded from a frame the slot no longer
//! holds (the tenant was re-registered meanwhile) are never installed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::service::Tenant;
use crate::ServeError;

struct Slot {
    resident: Option<Arc<Tenant>>,
    /// The registered keyset frame — retained for reload after eviction.
    frame: Arc<[u8]>,
    last_use: u64,
}

struct Inner {
    slots: HashMap<Arc<str>, Slot>,
    clock: u64,
}

/// The tenant registry: every registered tenant has a slot; at most
/// `capacity` slots hold decoded state at once.
pub(crate) struct KeyCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl KeyCache {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                clock: 0,
            }),
            capacity,
        }
    }

    /// Registers (or replaces) a tenant backed by its keyset frame; the
    /// decoded state is installed resident and is evictable.
    pub(crate) fn insert(&self, id: Arc<str>, frame: Arc<[u8]>, tenant: Arc<Tenant>) {
        let mut inner = self.inner.lock().expect("key cache poisoned");
        inner.clock += 1;
        let last_use = inner.clock;
        inner.slots.insert(
            id,
            Slot {
                resident: Some(tenant),
                frame,
                last_use,
            },
        );
        self.evict_excess(&mut inner);
    }

    /// Looks up a tenant, re-decoding its frame if it was evicted.
    /// `Ok(None)` means the id was never registered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] if a reload decode fails (only possible if
    /// key derivation stopped being deterministic — effectively never,
    /// but typed rather than panicking).
    pub(crate) fn get(&self, id: &str) -> Result<Option<Arc<Tenant>>, ServeError> {
        let frame = {
            let mut inner = self.inner.lock().expect("key cache poisoned");
            inner.clock += 1;
            let clock = inner.clock;
            let Some(slot) = inner.slots.get_mut(id) else {
                return Ok(None);
            };
            slot.last_use = clock;
            if let Some(tenant) = &slot.resident {
                crate::tel::keycache_hit().add(1);
                return Ok(Some(Arc::clone(tenant)));
            }
            Arc::clone(&slot.frame)
        };
        // Miss: decode outside the lock.
        crate::tel::keycache_miss().add(1);
        let rebuilt = Arc::new(Tenant::from_frame(&frame)?);
        let mut inner = self.inner.lock().expect("key cache poisoned");
        Ok(Some(self.install(&mut inner, id, &frame, rebuilt)))
    }

    /// Makes `rebuilt`, decoded from `frame` outside the lock, `id`'s
    /// resident, and returns the tenant the caller serves with.
    fn install(
        &self,
        inner: &mut Inner,
        id: &str,
        frame: &Arc<[u8]>,
        rebuilt: Arc<Tenant>,
    ) -> Arc<Tenant> {
        inner.clock += 1;
        let clock = inner.clock;
        let Some(slot) = inner
            .slots
            .get_mut(id)
            .filter(|slot| Arc::ptr_eq(&slot.frame, frame))
        else {
            // Re-registered while decoding: the slot holds another frame,
            // whose keys `rebuilt` are not. The caller looked the tenant
            // up before the re-registration and is served the state it
            // asked for; it is not cached.
            return rebuilt;
        };
        slot.last_use = clock;
        if let Some(tenant) = &slot.resident {
            // A concurrent miss beat us to the install; use theirs.
            return Arc::clone(tenant);
        }
        slot.resident = Some(Arc::clone(&rebuilt));
        self.evict_excess(inner);
        rebuilt
    }

    /// Decoded tenants currently resident — test and telemetry
    /// visibility.
    pub(crate) fn resident(&self) -> usize {
        self.inner
            .lock()
            .expect("key cache poisoned")
            .slots
            .values()
            .filter(|s| s.resident.is_some())
            .count()
    }

    /// Evicts least-recently-used residents down to capacity.
    fn evict_excess(&self, inner: &mut Inner) {
        loop {
            let over = inner
                .slots
                .values()
                .filter(|s| s.resident.is_some())
                .count();
            if over <= self.capacity {
                return;
            }
            let victim = inner
                .slots
                .iter()
                .filter(|(_, s)| s.resident.is_some())
                .min_by_key(|(_, s)| s.last_use)
                .map(|(id, _)| Arc::clone(id))
                .expect("over > capacity implies a victim exists");
            if let Some(slot) = inner.slots.get_mut(&*victim) {
                slot.resident = None;
            }
            crate::tel::keycache_evict().add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use he_ckks::context::CkksContext;
    use he_ckks::keys::KeySet;
    use he_ckks::params::CkksParams;
    use rand::SeedableRng;

    use super::*;

    fn frame(ctx: &CkksContext, seed: u64) -> Arc<[u8]> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let keys = KeySet::generate(ctx, &mut rng);
        Arc::from(poseidon_wire::encode_keyset_public(ctx, &keys))
    }

    fn tenant(frame: &[u8]) -> Arc<Tenant> {
        Arc::new(Tenant::from_frame(frame).expect("decodes"))
    }

    /// A reload races a re-registration: tenant `a`'s old frame decodes
    /// while `a` is re-registered and then evicted. The old keys must not
    /// be installed over the new registration.
    #[test]
    fn a_reload_that_races_a_re_registration_keeps_the_new_keys() {
        let ctx = CkksContext::new(CkksParams::toy());
        let (old, new, other) = (frame(&ctx, 1), frame(&ctx, 2), frame(&ctx, 3));
        let cache = KeyCache::new(1);
        cache.insert("a".into(), Arc::clone(&old), tenant(&old));
        cache.insert("b".into(), Arc::clone(&other), tenant(&other));
        assert_eq!(cache.resident(), 1, "b evicted a");

        // A miss on `a` decodes its old frame outside the lock …
        let stale = tenant(&old);
        // … while `a` is re-registered, then evicted.
        cache.insert("a".into(), Arc::clone(&new), tenant(&new));
        cache.insert("b".into(), Arc::clone(&other), tenant(&other));
        let served = {
            let mut inner = cache.inner.lock().expect("key cache poisoned");
            cache.install(&mut inner, "a", &old, Arc::clone(&stale))
        };
        assert!(
            Arc::ptr_eq(&served, &stale),
            "the racing caller keeps its lookup"
        );

        let reloaded = cache.get("a").expect("decodes").expect("registered");
        assert!(
            !Arc::ptr_eq(&reloaded, &stale),
            "the old keys were installed"
        );
        let want = tenant(&new);
        assert_eq!(reloaded.keys.public().b(), want.keys.public().b());
        assert_ne!(reloaded.keys.public().b(), stale.keys.public().b());
    }
}
