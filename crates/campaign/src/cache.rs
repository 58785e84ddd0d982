//! The content-addressed mesh cache.
//!
//! Meshing is the campaign's amortizable fixed cost: a catalogue sweep
//! runs many events against one Earth discretization, and §4.1 of the
//! paper exists precisely because rebuilding (or re-reading) the mesh
//! per run dominated everything else. The cache keys built
//! [`GlobalMesh`]es by their [`MeshKey`] fingerprint so concurrent jobs
//! that share a mesh build it once and share it through an `Arc`.
//!
//! Two kinds of hit:
//!
//! * **exact** — same full key, the `Arc` is handed out as-is;
//! * **derived** — same *geometry* fingerprint, different decomposition
//!   knobs (`NPROC_XI`, element order). The mesher provably never reads
//!   those during geometry/numbering/materials, so the cached mesh is
//!   cloned and re-stamped with the requester's parameters instead of
//!   rebuilt — this is what lets the Figure 6 harness build one mesh per
//!   resolution and sweep rank counts.
//!
//! The cache is memory-only: a whole NEX 8 set-up, mesh build included, is
//! faster than reading the same mesh back from a checksummed artifact.
//!
//! Admission control enforces a byte budget: a build waits until evicting
//! idle (`Arc` refcount 1) entries frees room, with a progress guarantee —
//! when the cache is empty, an oversized mesh is admitted anyway rather
//! than deadlocking the campaign.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use specfem_mesh::{GlobalMesh, MeshKey, MeshParams};

/// How a job's mesh request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Same full key already resident.
    Hit,
    /// Same geometry resident under different decomposition knobs;
    /// cloned and re-stamped instead of rebuilt.
    DerivedHit,
    /// Built from scratch.
    Miss,
}

impl CacheOutcome {
    /// Stable lowercase label for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::DerivedHit => "derived_hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Counters accumulated over a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-key hits.
    pub hits: u64,
    /// Geometry hits served by clone + re-stamp.
    pub derived_hits: u64,
    /// Full builds.
    pub misses: u64,
    /// Entries evicted to satisfy the byte budget.
    pub evictions: u64,
}

impl CacheStats {
    /// Every request that avoided a full mesh build.
    pub fn total_hits(&self) -> u64 {
        self.hits + self.derived_hits
    }
}

struct Entry {
    mesh: Arc<GlobalMesh>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<MeshKey, Entry>,
    /// Keys with an in-flight build; later requesters wait instead of
    /// building the same mesh twice.
    building: Vec<MeshKey>,
    resident_bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl Inner {
    /// Evict idle LRU entries until `need` more bytes fit in `budget`.
    /// Returns whether they do. Entries still referenced by a running job
    /// (`Arc` refcount > 1) are never evicted.
    fn evict_idle_until(&mut self, need: usize, budget: usize) -> bool {
        if budget == 0 {
            return true; // unbounded
        }
        while self.resident_bytes + need > budget {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.mesh) == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let e = self.entries.remove(&k).unwrap();
                    self.resident_bytes -= e.bytes;
                    self.stats.evictions += 1;
                }
                None => return false,
            }
        }
        true
    }

    fn insert(&mut self, key: MeshKey, mesh: Arc<GlobalMesh>, bytes: usize) {
        self.tick += 1;
        self.resident_bytes += bytes;
        self.entries.insert(
            key,
            Entry {
                mesh,
                bytes,
                last_used: self.tick,
            },
        );
    }
}

/// One worker's claim on the in-flight build of `key`. Dropping it —
/// normally or while unwinding — releases the slot and wakes the waiters,
/// who find the mesh resident or take over the build.
struct BuildClaim<'a> {
    cache: &'a MeshCache,
    key: &'a MeshKey,
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        // Removing a key leaves `Inner` valid at every step, so a poisoned
        // lock is still safe to use (and `drop` must not panic).
        let mut inner = self.cache.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.building.retain(|k| k != self.key);
        drop(inner);
        self.cache.cond.notify_all();
    }
}

/// A concurrent, byte-budgeted, content-addressed cache of built meshes.
pub struct MeshCache {
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Resident-byte ceiling; 0 = unbounded.
    budget: usize,
}

impl MeshCache {
    /// An in-memory cache with the given byte budget (0 = unbounded).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            budget: budget_bytes,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats.clone()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().unwrap().resident_bytes
    }

    /// Wake admission-control waiters; the campaign calls this whenever a
    /// job finishes and drops its mesh `Arc` (the cache cannot observe
    /// refcount changes itself).
    pub fn notify_released(&self) {
        self.cond.notify_all();
    }

    /// Get the mesh for `key`, building it with `build` on a miss.
    /// `params` are the requester's mesh parameters (used to re-stamp a
    /// derived hit); `estimated_bytes` is the admission-control size
    /// estimate for a build.
    ///
    /// Blocks while another worker builds the same key, and while the
    /// byte budget requires a running job to release a mesh.
    pub fn get_or_build(
        &self,
        key: &MeshKey,
        params: &MeshParams,
        estimated_bytes: usize,
        build: impl FnOnce() -> GlobalMesh,
    ) -> (Arc<GlobalMesh>, CacheOutcome) {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.entries.contains_key(key) {
                inner.tick += 1;
                let tick = inner.tick;
                let e = inner.entries.get_mut(key).unwrap();
                e.last_used = tick;
                let mesh = e.mesh.clone();
                inner.stats.hits += 1;
                return (mesh, CacheOutcome::Hit);
            }
            // Derived hit: same geometry under different decomposition
            // knobs — clone and re-stamp instead of rebuilding.
            let geo = key.geometry_fingerprint();
            let donor = inner
                .entries
                .iter()
                .filter(|(k, _)| k.geometry_fingerprint() == geo)
                .max_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(donor_key) = donor {
                let src = inner.entries[&donor_key].mesh.clone();
                let mut derived = (*src).clone();
                derived.params = params.clone();
                let bytes = derived.approx_bytes();
                // Best effort: the clone is far cheaper than a rebuild, so
                // admit it even when only idle eviction can make room.
                inner.evict_idle_until(bytes, self.budget);
                let mesh = Arc::new(derived);
                inner.insert(key.clone(), mesh.clone(), bytes);
                inner.stats.derived_hits += 1;
                self.cond.notify_all();
                return (mesh, CacheOutcome::DerivedHit);
            }
            if inner.building.contains(key) {
                inner = self.cond.wait(inner).unwrap();
                continue;
            }
            // Miss: claim the build slot, then enforce admission control.
            // The claim is released on every way out of this function — a
            // `build` that unwinds included, or the key would stay "being
            // built" and its waiters asleep for ever.
            inner.building.push(key.clone());
            let claim = BuildClaim { cache: self, key };
            while !inner.evict_idle_until(estimated_bytes, self.budget) {
                if inner.entries.is_empty() {
                    break; // progress guarantee: oversized mesh, admit it
                }
                inner = self.cond.wait(inner).unwrap();
            }
            drop(inner);

            let mesh = build();
            let bytes = mesh.approx_bytes();
            let mesh = Arc::new(mesh);
            let mut inner = self.inner.lock().unwrap();
            inner.insert(key.clone(), mesh.clone(), bytes);
            inner.stats.misses += 1;
            drop(inner);
            drop(claim);
            return (mesh, CacheOutcome::Miss);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfem_core::model::Prem;

    fn build_params(nex: usize, nproc: usize) -> (MeshKey, MeshParams) {
        let params = MeshParams::new(nex, nproc);
        let key = MeshKey::new(&params, "prem_iso");
        (key, params)
    }

    fn build_mesh(params: &MeshParams) -> GlobalMesh {
        GlobalMesh::build(params, &Prem::isotropic_no_ocean())
    }

    #[test]
    fn exact_hit_shares_one_arc() {
        let cache = MeshCache::new(0);
        let (key, params) = build_params(4, 1);
        let (m1, o1) = cache.get_or_build(&key, &params, 0, || build_mesh(&params));
        let (m2, o2) = cache.get_or_build(&key, &params, 0, || panic!("must not rebuild"));
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&m1, &m2));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
    }

    #[test]
    fn different_nproc_is_a_derived_hit_with_restamped_params() {
        let cache = MeshCache::new(0);
        let (k1, p1) = build_params(4, 1);
        let (k2, p2) = build_params(4, 2);
        assert_ne!(k1.fingerprint(), k2.fingerprint());
        assert_eq!(k1.geometry_fingerprint(), k2.geometry_fingerprint());
        let (m1, _) = cache.get_or_build(&k1, &p1, 0, || build_mesh(&p1));
        let (m2, o2) = cache.get_or_build(&k2, &p2, 0, || panic!("must not rebuild"));
        assert_eq!(o2, CacheOutcome::DerivedHit);
        assert_eq!(m2.params.nproc_xi, 2);
        assert_eq!(
            specfem_mesh::content_hash(&m1).ibool,
            specfem_mesh::content_hash(&m2).ibool
        );
    }

    #[test]
    fn budget_evicts_idle_lru() {
        let (k1, p1) = build_params(4, 1);
        let (k2, p2) = build_params(6, 1);
        let m1 = build_mesh(&p1);
        let m2 = build_mesh(&p2);
        // Room for the bigger of the two, never both.
        let budget = m1.approx_bytes().max(m2.approx_bytes()) + 1024;
        let cache = MeshCache::new(budget);
        let (a1, _) = cache.get_or_build(&k1, &p1, m1.approx_bytes(), || build_mesh(&p1));
        drop(a1); // idle → evictable
        cache.notify_released();
        let (_a2, o2) = cache.get_or_build(&k2, &p2, m2.approx_bytes(), || build_mesh(&p2));
        assert_eq!(o2, CacheOutcome::Miss);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        // The first mesh is gone: only the second is resident.
        assert_eq!(cache.resident_bytes(), m2.approx_bytes());
    }

    /// A build that panics must give its slot back: the thread already
    /// waiting on the key takes the build over, and a later request is
    /// served — neither sleeps on a key nobody is building.
    #[test]
    fn panicking_build_releases_its_key() {
        use std::sync::mpsc;
        use std::time::Duration;

        let cache = Arc::new(MeshCache::new(0));
        let (key, params) = build_params(4, 1);
        let timeout = Duration::from_secs(120);
        // The builder holds the slot until told to fail.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (fail_tx, fail_rx) = mpsc::channel::<()>();
        let builder = {
            let (cache, key, params) = (cache.clone(), key.clone(), params.clone());
            std::thread::spawn(move || {
                cache.get_or_build(&key, &params, 0, || {
                    entered_tx.send(()).unwrap();
                    fail_rx.recv().unwrap();
                    panic!("injected mesh-build failure")
                })
            })
        };
        entered_rx.recv_timeout(timeout).expect("builder never ran");
        // A second request for the same key arrives while the slot is held.
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = {
            let (cache, key, params) = (cache.clone(), key.clone(), params.clone());
            std::thread::spawn(move || {
                let (_, outcome) = cache.get_or_build(&key, &params, 0, || build_mesh(&params));
                done_tx.send(outcome).unwrap();
            })
        };
        fail_tx.send(()).unwrap();
        assert!(builder.join().is_err(), "the builder must have panicked");
        // Whether the waiter was already asleep on the key or only arrives
        // now, it must end up building the mesh itself.
        let outcome = done_rx
            .recv_timeout(timeout)
            .expect("request hung on the key of a build that panicked");
        assert_eq!(outcome, CacheOutcome::Miss);
        waiter.join().unwrap();
        let (_, again) = cache.get_or_build(&key, &params, 0, || panic!("must not rebuild"));
        assert_eq!(again, CacheOutcome::Hit);
        assert_eq!(cache.stats().misses, 1);
    }
}
