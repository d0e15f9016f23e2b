//! The process-wide topic interner.
//!
//! Every distinct [`Topic`](crate::topic::Topic) is registered here exactly
//! once and handed out as a `&'static`-shared record carrying a stable
//! small-integer [`TopicId`]. The registry is process-lifetime (entries
//! are never evicted), so records are leaked on registration and handles
//! are plain `Copy` references: cloning a topic costs nothing — not even
//! a reference-count bump — comparing it is an integer compare, and
//! brokers/stores can key routing tables and series columns by `TopicId`
//! instead of re-hashing strings per sample.
//!
//! Ids are assigned in registration order and never reused; the registry
//! grows monotonically for the process lifetime (bounded by the number of
//! distinct topics, a few hundred for a cluster of this size). The
//! `Display`/parse round-trip is lossless — the rendered form is exactly
//! the `/`-joined segments, so the `<value>;<timestamp>` wire format and
//! every event/telemetry byte are unchanged by interning.

use std::collections::HashMap;
use std::sync::{LazyLock, RwLock, RwLockReadGuard};

/// A stable small-integer handle for an interned topic.
///
/// Ids are dense (assigned from 0 in registration order), which lets hot
/// consumers index plain vectors by [`TopicId::index`] instead of hashing.
/// Ordering follows registration order, not topic-name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicId(pub(crate) u32);

impl TopicId {
    /// The id as a dense vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shared, immutable record behind one interned topic.
#[derive(Debug)]
pub(crate) struct TopicData {
    pub(crate) id: TopicId,
    pub(crate) segments: Vec<String>,
    pub(crate) display: String,
}

#[derive(Default)]
struct Interner {
    by_display: HashMap<String, u32>,
    entries: Vec<&'static TopicData>,
    /// Deep registrations performed (cache misses). Steady-state hot
    /// paths must keep this flat — the zero-allocation probe asserts it.
    registrations: u64,
}

static INTERNER: LazyLock<RwLock<Interner>> = LazyLock::new(|| RwLock::new(Interner::default()));

/// Shared access to the registry. A panic while registering poisons the
/// lock, and every later access then panics too.
fn registry() -> RwLockReadGuard<'static, Interner> {
    INTERNER.read().expect("topic interner poisoned")
}

/// Looks up an already-interned topic by its rendered form without
/// allocating. Returns `None` if the topic has never been registered.
pub(crate) fn lookup_display(display: &str) -> Option<&'static TopicData> {
    let interner = registry();
    interner
        .by_display
        .get(display)
        .map(|&i| interner.entries[i as usize])
}

/// Resolves an id back to its record.
pub(crate) fn get(id: TopicId) -> Option<&'static TopicData> {
    registry().entries.get(id.index()).copied()
}

/// Interns validated segments, returning the shared record (registering it
/// on first sight). `segments` must already satisfy the topic grammar.
pub(crate) fn intern(segments: Vec<String>) -> &'static TopicData {
    let display = segments.join("/");
    if let Some(found) = lookup_display(&display) {
        return found;
    }
    let mut interner = INTERNER.write().expect("topic interner poisoned");
    if let Some(&i) = interner.by_display.get(&display) {
        return interner.entries[i as usize];
    }
    let id = TopicId(
        u32::try_from(interner.entries.len()).expect("topic interner overflow (2^32 topics)"),
    );
    // Leaked deliberately: the registry never evicts, so every record
    // lives for the process lifetime regardless — leaking makes that
    // explicit and lets handles be refcount-free `Copy` references.
    let data: &'static TopicData = Box::leak(Box::new(TopicData {
        id,
        segments,
        display: display.clone(),
    }));
    interner.by_display.insert(display, id.0);
    interner.entries.push(data);
    interner.registrations += 1;
    data
}

/// Total deep registrations performed (monotonic). A steady-state
/// telemetry loop over pre-registered topics must not move this counter;
/// the zero-allocation tests assert exactly that.
pub fn registration_count() -> u64 {
    registry().registrations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_shared() {
        let a = intern(vec!["interner".into(), "stable".into(), "x".into()]);
        let b = intern(vec!["interner".into(), "stable".into(), "x".into()]);
        assert_eq!(a.id, b.id);
        assert!(std::ptr::eq(a, b));
        let c = intern(vec!["interner".into(), "stable".into(), "y".into()]);
        assert_ne!(a.id, c.id);
        assert_eq!(get(a.id).unwrap().display, "interner/stable/x");
    }

    #[test]
    fn repeat_interning_does_not_register_again() {
        intern(vec!["interner".into(), "idem".into()]);
        let before = registration_count();
        for _ in 0..10 {
            intern(vec!["interner".into(), "idem".into()]);
            assert!(lookup_display("interner/idem").is_some());
        }
        assert_eq!(registration_count(), before);
    }
}
