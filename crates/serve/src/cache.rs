//! Cross-job caches keyed by content hash.
//!
//! Repeat traffic in a standby-power service hits the same cell
//! libraries and, often, the same netlists: a sweep over clustering or
//! penalty configurations re-submits near-identical jobs. The expensive
//! artifacts — the precharacterized cell tables of
//! [`svtox_cells::Library::new`], a parsed-and-mapped netlist, a parsed
//! Liberty leakage table — are therefore cached across jobs, keyed by an
//! FNV-1a hash of the exact content that determines them:
//!
//! * **libraries** — the canonical encoding of [`LibraryOptions`] (every
//!   field, floats by bit pattern), since characterization is a pure
//!   function of the options and the technology;
//! * **netlists** — the **post-strash structural hash** of a submitted
//!   `.bench` text (two spellings of the same circuit — renamed wires,
//!   reordered lines, commuted pins — share one cache entry), or the
//!   `name:` form of a built-in benchmark;
//! * **Liberty tables** — the submitted Liberty text.
//!
//! Each entry is built exactly once per key (single-flight): concurrent
//! cold requests for the same key block on the builder instead of
//! characterizing in parallel, which is what makes warm jobs measurably
//! faster than cold ones under load.
//!
//! The netlist cache and its text-hash memo keep at most
//! [`NETLIST_CACHE_CAP`] entries each and evict the oldest first, so a
//! server that sees ever more distinct circuits holds a bounded working
//! set.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use svtox_cells::liberty::LeakageRows;
use svtox_cells::{parse_liberty_leakage, Library, LibraryOptions};
use svtox_netlist::generators::benchmark;
use svtox_netlist::{map_to_primitives, parse_bench, strash, EditScript, MappingOptions, Netlist};
use svtox_obs::Obs;
use svtox_tech::Technology;

/// FNV-1a 64-bit content hash (the workspace is dependency-free, and the
/// keys are trusted content, not adversarial input).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical cache key of a library configuration.
#[must_use]
pub fn library_key(options: &LibraryOptions) -> u64 {
    let canonical = format!(
        "tech=predictive_65nm;points={:?};uniform={};reorder={};vt={:?};arity={};igate={:016x}",
        options.tradeoff_points,
        options.uniform_stack,
        options.pin_reordering,
        options.vt_site,
        options.max_arity,
        options.igate_significance.to_bits(),
    );
    fnv1a64(canonical.as_bytes())
}

/// Distinct netlists (and bench-text memo entries) the server keeps.
/// Past this many, the oldest entry is evicted: a later job naming it is
/// a miss that rebuilds it, with the same result bits.
pub const NETLIST_CACHE_CAP: usize = 64;

/// A map that keeps at most `cap` keys, evicting the first inserted.
struct Fifo<V> {
    map: HashMap<u64, V>,
    order: VecDeque<u64>,
    cap: usize,
}

impl<V> Fifo<V> {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// The value under `key`, inserting `make()` if there is none; true
    /// when that insert evicted the oldest key.
    fn entry(&mut self, key: u64, make: impl FnOnce() -> V) -> (&mut V, bool) {
        let mut evicted = false;
        if !self.map.contains_key(&key) {
            if self.map.len() == self.cap {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                    evicted = true;
                }
            }
            self.order.push_back(key);
        }
        (self.map.entry(key).or_insert_with(make), evicted)
    }
}

/// A single-flight cache slot: the first thread to lock it builds, the
/// rest block and then read the finished value.
type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

struct SlotMap<T> {
    slots: Mutex<Fifo<Slot<T>>>,
    /// Counter bumped when a new key evicts the oldest.
    evictions: &'static str,
}

impl<T> SlotMap<T> {
    fn unbounded() -> Self {
        Self::bounded(usize::MAX, "")
    }

    fn bounded(cap: usize, evictions: &'static str) -> Self {
        Self {
            slots: Mutex::new(Fifo::new(cap)),
            evictions,
        }
    }

    /// Returns `(value, hit)`; `build` runs at most once per key across
    /// all threads while the key stays cached, unless it errors (a failed
    /// build leaves the slot empty so a later request can retry). An
    /// evicted slot stays valid for the requests already holding it.
    fn get_or_build<E>(
        &self,
        key: u64,
        obs: &Obs,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let slot = {
            let mut slots = self.slots.lock().expect("cache slot map lock");
            let (slot, evicted) = slots.entry(key, || Arc::new(Mutex::new(None)));
            if evicted {
                obs.add(self.evictions, 1);
            }
            Arc::clone(slot)
        };
        let mut guard = slot.lock().expect("cache slot lock");
        if let Some(value) = guard.as_ref() {
            return Ok((Arc::clone(value), true));
        }
        let value = Arc::new(build()?);
        *guard = Some(Arc::clone(&value));
        Ok((value, false))
    }

    fn len(&self) -> usize {
        self.slots.lock().expect("cache slot map lock").map.len()
    }
}

/// The cross-job caches of one server instance.
pub struct SharedCaches {
    libraries: SlotMap<Library>,
    netlists: SlotMap<Netlist>,
    liberty: SlotMap<HashMap<String, LeakageRows>>,
    /// Memo from bench-text hash to the post-strash structural key, so
    /// byte-identical resubmissions skip the parse+strash keying pass.
    bench_keys: Mutex<Fifo<u64>>,
}

impl Default for SharedCaches {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedCaches {
    /// Fresh, empty caches.
    #[must_use]
    pub fn new() -> Self {
        Self {
            libraries: SlotMap::unbounded(),
            netlists: SlotMap::bounded(NETLIST_CACHE_CAP, "serve.cache.netlist_evictions"),
            liberty: SlotMap::unbounded(),
            bench_keys: Mutex::new(Fifo::new(NETLIST_CACHE_CAP)),
        }
    }

    /// The characterized library for `options`, building it on miss.
    ///
    /// # Errors
    ///
    /// Returns the characterization error on a cold miss that fails.
    pub fn library(
        &self,
        options: LibraryOptions,
        obs: &Obs,
    ) -> Result<Arc<Library>, svtox_cells::LibraryError> {
        let (lib, hit) = self
            .libraries
            .get_or_build(library_key(&options), obs, || {
                Library::new(Technology::predictive_65nm(), options)
            })?;
        obs.add(
            if hit {
                "serve.cache.library_hits"
            } else {
                "serve.cache.library_misses"
            },
            1,
        );
        Ok(lib)
    }

    /// The parsed-and-mapped netlist for a submitted `.bench` text,
    /// cached by the **post-strash structural hash** of the mapped
    /// netlist. Two textual spellings of the same circuit — renamed
    /// wires, reordered lines, commuted input pins — hash to the same
    /// key and share one cache entry; such cross-spelling hits bump
    /// `serve.cache.netlist_dedup_hits`. The *stored* netlist is the
    /// un-strashed mapped form of whichever spelling arrived first, so
    /// optimization results stay bit-identical to a cold parse of that
    /// spelling. A text-hash memo skips the keying pass (parse + map +
    /// strash) for byte-identical resubmissions.
    ///
    /// # Errors
    ///
    /// Returns the parse or mapping error on a cold miss that fails.
    pub fn netlist_from_bench(
        &self,
        bench_text: &str,
        obs: &Obs,
    ) -> Result<Arc<Netlist>, svtox_netlist::NetlistError> {
        let text_key = fnv1a64(bench_text.as_bytes());
        let known = self
            .bench_keys
            .lock()
            .expect("bench-key memo lock")
            .map
            .get(&text_key)
            .copied();
        let (key, prepared) = match known {
            Some(key) => (key, None),
            None => {
                let raw = parse_bench(bench_text)?;
                let mapped = map_to_primitives(&raw, MappingOptions::default())?;
                let key = strash(&mapped).0.content_hash();
                (key, Some(mapped))
            }
        };
        let freshly_keyed = prepared.is_some();
        let (netlist, hit) = self.netlists.get_or_build(key, obs, || {
            match prepared {
                Some(mapped) => Ok(mapped),
                // The memo outlived the netlist it names: rebuild it from
                // the text.
                None => {
                    let raw = parse_bench(bench_text)?;
                    map_to_primitives(&raw, MappingOptions::default())
                }
            }
        })?;
        if hit && freshly_keyed {
            obs.add("serve.cache.netlist_dedup_hits", 1);
        }
        self.bench_keys
            .lock()
            .expect("bench-key memo lock")
            .entry(text_key, || key);
        self.count_netlist(hit, obs);
        Ok(netlist)
    }

    /// A built-in benchmark reconstruction by name.
    ///
    /// # Errors
    ///
    /// Returns the generator error for an unknown name.
    pub fn netlist_named(
        &self,
        name: &str,
        obs: &Obs,
    ) -> Result<Arc<Netlist>, svtox_netlist::NetlistError> {
        let key = fnv1a64(format!("name:{name}").as_bytes());
        let (netlist, hit) = self.netlists.get_or_build(key, obs, || benchmark(name))?;
        self.count_netlist(hit, obs);
        Ok(netlist)
    }

    /// The result of applying an edit script to an already-mapped
    /// netlist, cached by the **post-edit content hash** — so
    /// resubmitting the same edit script is a hit, and so are two
    /// different scripts that produce structurally identical netlists.
    ///
    /// # Errors
    ///
    /// Returns the script parse error or the edit application error
    /// (undefined signals, combinational cycles, …).
    pub fn netlist_edited(
        &self,
        base: &Netlist,
        edits_text: &str,
        obs: &Obs,
    ) -> Result<Arc<Netlist>, svtox_netlist::NetlistError> {
        let script = EditScript::parse(edits_text)?;
        let mut edited = base.clone();
        script.apply(&mut edited)?;
        // Drop the edit's dirty-net bookkeeping before sharing: the
        // cached artifact is a plain netlist, not an in-flight edit.
        let _ = edited.take_dirty();
        let key = edited.content_hash();
        let (netlist, hit) = self
            .netlists
            .get_or_build(key, obs, || Ok::<_, svtox_netlist::NetlistError>(edited))?;
        self.count_netlist(hit, obs);
        obs.add(
            if hit {
                "serve.cache.eco_hits"
            } else {
                "serve.cache.eco_misses"
            },
            1,
        );
        Ok(netlist)
    }

    fn count_netlist(&self, hit: bool, obs: &Obs) {
        obs.add(
            if hit {
                "serve.cache.netlist_hits"
            } else {
                "serve.cache.netlist_misses"
            },
            1,
        );
    }

    /// The parsed leakage table of a Liberty text.
    ///
    /// # Errors
    ///
    /// Returns the Liberty parse error on a cold miss that fails.
    pub fn liberty(
        &self,
        text: &str,
        obs: &Obs,
    ) -> Result<Arc<HashMap<String, LeakageRows>>, svtox_cells::LibraryError> {
        let key = fnv1a64(text.as_bytes());
        let (rows, hit) = self
            .liberty
            .get_or_build(key, obs, || parse_liberty_leakage(text))?;
        obs.add(
            if hit {
                "serve.cache.liberty_hits"
            } else {
                "serve.cache.liberty_misses"
            },
            1,
        );
        Ok(rows)
    }

    /// Distinct library configurations seen so far.
    #[must_use]
    pub fn libraries_cached(&self) -> usize {
        self.libraries.len()
    }

    /// Distinct netlists cached (at most [`NETLIST_CACHE_CAP`]).
    #[must_use]
    pub fn netlists_cached(&self) -> usize {
        self.netlists.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn library_key_separates_configurations() {
        let base = LibraryOptions::default();
        let mut two = base;
        two.tradeoff_points = svtox_cells::TradeoffPoints::Two;
        let mut uniform = base;
        uniform.uniform_stack = true;
        assert_eq!(library_key(&base), library_key(&LibraryOptions::default()));
        assert_ne!(library_key(&base), library_key(&two));
        assert_ne!(library_key(&base), library_key(&uniform));
        assert_ne!(library_key(&two), library_key(&uniform));
    }

    #[test]
    fn second_library_request_is_a_hit_on_the_same_table() {
        let caches = SharedCaches::new();
        let obs = Obs::enabled();
        let cold = caches.library(LibraryOptions::default(), &obs).unwrap();
        let warm = caches.library(LibraryOptions::default(), &obs).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "one characterization, shared");
        let counters = obs.counter_snapshot();
        assert_eq!(counters.get("serve.cache.library_misses"), Some(&1));
        assert_eq!(counters.get("serve.cache.library_hits"), Some(&1));
        assert_eq!(caches.libraries_cached(), 1);
    }

    #[test]
    fn bench_text_and_names_cache_by_content() {
        let caches = SharedCaches::new();
        let obs = Obs::enabled();
        let named = caches.netlist_named("c432", &obs).unwrap();
        let named_again = caches.netlist_named("c432", &obs).unwrap();
        assert!(Arc::ptr_eq(&named, &named_again));
        let text = named.to_bench();
        let parsed = caches.netlist_from_bench(&text, &obs).unwrap();
        let parsed_again = caches.netlist_from_bench(&text, &obs).unwrap();
        assert!(Arc::ptr_eq(&parsed, &parsed_again));
        assert_eq!(parsed.num_gates(), named.num_gates());
        let counters = obs.counter_snapshot();
        assert_eq!(counters.get("serve.cache.netlist_hits"), Some(&2));
        assert_eq!(counters.get("serve.cache.netlist_misses"), Some(&2));
        assert!(caches.netlist_named("no_such_circuit", &obs).is_err());
    }

    #[test]
    fn edited_netlists_cache_by_post_edit_content_hash() {
        let caches = SharedCaches::new();
        let obs = Obs::enabled();
        let base = caches.netlist_named("c432", &obs).unwrap();
        let pi0 = base.net(base.inputs()[0]).name().to_string();
        let pi1 = base.net(base.inputs()[1]).name().to_string();
        let script = format!("add eco_t = NAND({pi0}, {pi1})\n");
        let cold = caches.netlist_edited(&base, &script, &obs).unwrap();
        assert_eq!(cold.num_gates(), base.num_gates() + 1);
        // Resubmitting the same script hits the same entry.
        let warm = caches.netlist_edited(&base, &script, &obs).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm));
        // A trailing comment changes the text but not the post-edit
        // netlist: content-hash keying still hits.
        let commented = format!("{script}# no functional change\n");
        let same = caches.netlist_edited(&base, &commented, &obs).unwrap();
        assert!(Arc::ptr_eq(&cold, &same));
        let counters = obs.counter_snapshot();
        assert_eq!(counters.get("serve.cache.eco_misses"), Some(&1));
        assert_eq!(counters.get("serve.cache.eco_hits"), Some(&2));
        // Bad scripts surface as typed errors, not cache poison.
        assert!(caches
            .netlist_edited(&base, "add x = NAND(nope)", &obs)
            .is_err());
        assert!(caches.netlist_edited(&base, "garbage line", &obs).is_err());
    }

    /// Distinct circuits: gate counts differ, so no two share a key.
    fn distinct_bench(i: usize) -> String {
        use svtox_netlist::generators::{random_dag, RandomDagSpec};
        random_dag(&RandomDagSpec::new(format!("cap{i}"), 4, 2, 6 + i, 3))
            .expect("spec is valid")
            .to_bench()
    }

    #[test]
    fn the_netlist_cache_evicts_its_oldest_entry_past_the_cap() {
        let caches = SharedCaches::new();
        let obs = Obs::enabled();
        let texts: Vec<String> = (0..=NETLIST_CACHE_CAP).map(distinct_bench).collect();
        for text in &texts {
            caches.netlist_from_bench(text, &obs).unwrap();
        }
        assert_eq!(caches.netlists_cached(), NETLIST_CACHE_CAP);
        assert_eq!(
            caches.bench_keys.lock().unwrap().map.len(),
            NETLIST_CACHE_CAP
        );
        // The newest is still a hit; the first was evicted and misses
        // (evicting the second in turn).
        caches
            .netlist_from_bench(&texts[NETLIST_CACHE_CAP], &obs)
            .unwrap();
        let first = caches.netlist_from_bench(&texts[0], &obs).unwrap();
        assert_eq!(
            first.to_bench(),
            map_to_primitives(&parse_bench(&texts[0]).unwrap(), MappingOptions::default())
                .unwrap()
                .to_bench()
        );
        let counters = obs.counter_snapshot();
        assert_eq!(counters.get("serve.cache.netlist_hits"), Some(&1));
        assert_eq!(
            counters.get("serve.cache.netlist_misses"),
            Some(&(NETLIST_CACHE_CAP as u64 + 2))
        );
        assert_eq!(counters.get("serve.cache.netlist_evictions"), Some(&2));
    }

    #[test]
    fn failed_builds_do_not_poison_the_slot() {
        let caches = SharedCaches::new();
        let obs = Obs::enabled();
        assert!(caches.netlist_from_bench("not a bench file", &obs).is_err());
        // Same key, still an error — but not a cached panic or stale Ok.
        assert!(caches.netlist_from_bench("not a bench file", &obs).is_err());
    }

    #[test]
    fn liberty_tables_cache_by_text_hash() {
        let caches = SharedCaches::new();
        let obs = Obs::enabled();
        let lib = caches.library(LibraryOptions::default(), &obs).unwrap();
        let text = svtox_cells::to_liberty(&lib);
        let cold = caches.liberty(&text, &obs).unwrap();
        let warm = caches.liberty(&text, &obs).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm));
        assert!(!cold.is_empty(), "the exported library has cells");
        let counters = obs.counter_snapshot();
        assert_eq!(counters.get("serve.cache.liberty_hits"), Some(&1));
        assert_eq!(counters.get("serve.cache.liberty_misses"), Some(&1));
    }
}
