//! Dynamic object identity.
//!
//! In the ATTILA simulator all data that travels through signals derives
//! from a `DynamicObject` class storing an identifier, a "colour" and a text
//! string. The identifier links related objects into a multilevel hierarchy:
//! fragments are associated with the triangle they came from, so a memory
//! access generated for a fragment is transitively associated with the
//! triangle and the draw batch. The per-cycle contents of each signal,
//! together with these identities, can be dumped as a *signal trace* for the
//! Signal Trace Visualizer performance-debugging tool.
//!
//! In this Rust port, pipeline data types *embed* a [`DynamicObject`] value
//! and expose it through the [`Traceable`] trait instead of inheriting from
//! a base class.
//!
//! # What replaced `OptimizedMemory`
//!
//! The original gives `DynamicObject` a pooled allocator so that creating,
//! passing and destroying objects is nearly free. The port gets the same
//! effect from the shape of the data instead of from a pool: the identity
//! is three plain words (24 bytes, `Copy`-cheap, no heap part), small
//! payloads embed it and travel by value, and the one large payload — the
//! fragment quad — is boxed once where Hierarchical Z creates it, so every
//! wire slot, port queue and `Result<Option<T>>` on its way to the ROPs
//! moves a pointer. One allocation per quad, freed by whichever box
//! retires it, is all a pool would have saved.

use std::fmt;

use attila_json::impl_json_state;

/// Identity information carried by every object travelling through signals.
///
/// # Examples
///
/// ```
/// use attila_sim::{DynamicObject, ObjectIdGen};
///
/// let mut ids = ObjectIdGen::new();
/// let triangle = DynamicObject::new(ids.next_id());
/// let fragment = DynamicObject::child_of(ids.next_id(), &triangle);
/// assert_eq!(fragment.parent(), Some(triangle.id()));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DynamicObject {
    id: u64,
    /// Parent identifier, [`NO_PARENT`] for a root object.
    parent: u64,
    color: u32,
}

/// Sentinel `parent` of a root object. Identifiers are issued from 0
/// upwards by [`ObjectIdGen`], so the all-ones value never names one.
const NO_PARENT: u64 = u64::MAX;

// Every payload embeds one of these in every wire slot it occupies.
const _: () = assert!(std::mem::size_of::<DynamicObject>() <= 24);

impl DynamicObject {
    /// Creates a root object (no parent) with the given identifier.
    pub fn new(id: u64) -> Self {
        DynamicObject { id, parent: NO_PARENT, color: 0 }
    }

    /// Creates an object linked to a parent object, forming the multilevel
    /// hierarchy used to relate e.g. memory accesses to fragments to
    /// triangles.
    pub fn child_of(id: u64, parent: &DynamicObject) -> Self {
        DynamicObject { id, parent: parent.id, color: parent.color }
    }

    /// The unique identifier of this object.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The identifier of the parent object, if any.
    pub fn parent(&self) -> Option<u64> {
        (self.parent != NO_PARENT).then_some(self.parent)
    }

    /// The debug colour used by the Signal Trace Visualizer to group
    /// related objects visually.
    pub fn color(&self) -> u32 {
        self.color
    }

    /// Sets the debug colour.
    pub fn set_color(&mut self, color: u32) {
        self.color = color;
    }
}

impl fmt::Debug for DynamicObject {
    /// Shows `parent` as the `Option` the accessor returns, not as the
    /// stored sentinel (this text ends up in signal traces).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynamicObject")
            .field("id", &self.id)
            .field("parent", &self.parent())
            .field("color", &self.color)
            .finish()
    }
}

impl fmt::Display for DynamicObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.parent() {
            Some(p) => write!(f, "#{}<-#{}", self.id, p),
            None => write!(f, "#{}", self.id),
        }
    }
}

/// Types that carry a [`DynamicObject`] identity and can therefore be
/// recorded in signal traces.
pub trait Traceable {
    /// Returns the embedded identity.
    fn dyn_object(&self) -> &DynamicObject;

    /// One-line description recorded in signal traces. The default uses the
    /// [`Display`](fmt::Display) form of the identity.
    fn trace_info(&self) -> String {
        self.dyn_object().to_string()
    }
}

impl Traceable for DynamicObject {
    fn dyn_object(&self) -> &DynamicObject {
        self
    }
}

/// Monotonic generator for [`DynamicObject`] identifiers.
///
/// Of the original's `OptimizedMemory` object pool only the id allocation
/// survives the port; the module documentation says what does the pool's
/// job instead.
#[derive(Debug, Default, Clone)]
pub struct ObjectIdGen {
    next: u64,
}

impl ObjectIdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh, never-before-returned identifier.
    #[allow(clippy::should_implement_trait)]
    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Number of identifiers handed out so far.
    pub fn issued(&self) -> u64 {
        self.next
    }
}

// A generator's whole state is the number of identifiers it has issued:
// one loaded from it hands out that number next.
impl_json_state!(ObjectIdGen = next: hex);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut g = ObjectIdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        let c = g.next_id();
        assert!(a < b && b < c);
        assert_eq!(g.issued(), 3);
    }

    #[test]
    fn child_inherits_color_and_parent_link() {
        let mut g = ObjectIdGen::new();
        let mut tri = DynamicObject::new(g.next_id());
        tri.set_color(7);
        let frag = DynamicObject::child_of(g.next_id(), &tri);
        assert_eq!(frag.parent(), Some(tri.id()));
        assert_eq!(frag.color(), 7);
    }

    #[test]
    fn display_shows_hierarchy() {
        let mut g = ObjectIdGen::new();
        let tri = DynamicObject::new(g.next_id());
        let frag = DynamicObject::child_of(g.next_id(), &tri);
        assert_eq!(tri.parent(), None);
        assert_eq!(frag.to_string(), "#1<-#0");
    }

    #[test]
    fn traceable_default_uses_display() {
        let o = DynamicObject::new(9);
        assert_eq!(o.trace_info(), "#9");
    }
}
