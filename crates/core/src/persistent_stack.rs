//! Persistent execution stack (paper §3.3).
//!
//! All matching stacks — the parallel stacks of the current step, the stacks
//! of previous steps kept for rollback, and the transient stacks explored
//! while checking context-dependent tokens — are stored in a single tree.
//! Every stack is a path from the root to one of its nodes, identified by a
//! [`StackHandle`] pointing at the path's deepest node (the stack *top*).
//!
//! Pushing is memoized: pushing the same automaton node onto the same parent
//! always returns the same handle, so logically equal stacks share storage
//! and can be deduplicated by comparing handles. Branching a stack (grammar
//! ambiguity, speculative decoding trees) and rolling back to an earlier step
//! are both O(1): they only manipulate handles, never copy stack contents.
//!
//! The tree is one arena: a node links its children through
//! `first_child`/`next_sibling` indices, so a push allocates nothing beyond
//! the arena's own growth, and [`PersistentStackTree::clear`] empties it for
//! the next request without giving the capacity back.

use xg_automata::NodeId;

/// Handle to a stack stored in a [`PersistentStackTree`]: the index of the
/// stack's top node in the tree arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct StackHandle(u32);

impl StackHandle {
    /// The empty stack (the tree root sentinel).
    pub(crate) const ROOT: StackHandle = StackHandle(0);

    /// Returns the raw index (mainly for statistics and debugging).
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone)]
struct TreeNode {
    parent: u32,
    /// The automaton node stored in this stack element. Meaningless for the
    /// root sentinel.
    node: NodeId,
    /// Head of this node's child list and the next entry of the list this
    /// node is on (0 = none: the root is nobody's child). The lists memoize
    /// pushes without a heap allocation per node.
    first_child: u32,
    next_sibling: u32,
    depth: u32,
}

/// The tree holding every persistent stack.
#[derive(Debug, Clone)]
pub(crate) struct PersistentStackTree {
    nodes: Vec<TreeNode>,
}

impl Default for PersistentStackTree {
    fn default() -> Self {
        Self::new()
    }
}

impl PersistentStackTree {
    /// Creates a tree containing only the root sentinel (the empty stack).
    pub(crate) fn new() -> Self {
        PersistentStackTree {
            nodes: vec![TreeNode {
                parent: 0,
                node: NodeId(u32::MAX),
                first_child: 0,
                next_sibling: 0,
                depth: 0,
            }],
        }
    }

    /// Forgets every stack but keeps the arena's capacity, so a recycled
    /// matcher replays a similar request without growing it again. Every
    /// handle other than [`StackHandle::ROOT`] is invalidated.
    pub(crate) fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0].first_child = 0;
    }

    /// Pushes `node` on top of the stack `parent`, returning the handle of
    /// the new stack. Memoized: repeated pushes of the same node on the same
    /// parent return the same handle.
    pub(crate) fn push(&mut self, parent: StackHandle, node: NodeId) -> StackHandle {
        let parent_idx = parent.0 as usize;
        let first_child = self.nodes[parent_idx].first_child;
        let mut child = first_child;
        while child != 0 {
            if self.nodes[child as usize].node == node {
                return StackHandle(child);
            }
            child = self.nodes[child as usize].next_sibling;
        }
        let idx = self.nodes.len() as u32;
        let depth = self.nodes[parent_idx].depth + 1;
        self.nodes.push(TreeNode {
            parent: parent.0,
            node,
            first_child: 0,
            next_sibling: first_child,
            depth,
        });
        self.nodes[parent_idx].first_child = idx;
        StackHandle(idx)
    }

    /// Pops the top element, returning the handle of the remaining stack.
    ///
    /// # Panics
    ///
    /// Panics if called on the empty stack.
    pub(crate) fn pop(&self, handle: StackHandle) -> StackHandle {
        assert!(handle != StackHandle::ROOT, "cannot pop the empty stack");
        StackHandle(self.nodes[handle.0 as usize].parent)
    }

    /// Returns the top automaton node of the stack, or `None` for the empty
    /// stack.
    pub(crate) fn top(&self, handle: StackHandle) -> Option<NodeId> {
        if handle == StackHandle::ROOT {
            None
        } else {
            Some(self.nodes[handle.0 as usize].node)
        }
    }

    /// Replaces the top element (pop + push), returning the new handle.
    ///
    /// # Panics
    ///
    /// Panics if called on the empty stack.
    pub(crate) fn replace_top(&mut self, handle: StackHandle, node: NodeId) -> StackHandle {
        let parent = self.pop(handle);
        self.push(parent, node)
    }

    /// Number of elements in the stack identified by `handle`.
    pub(crate) fn depth(&self, handle: StackHandle) -> usize {
        self.nodes[handle.0 as usize].depth as usize
    }

    /// Number of tree nodes allocated (shared across all stacks), including
    /// the root sentinel.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
impl PersistentStackTree {
    /// Materializes the stack as a vector (bottom first, top last). Intended
    /// for tests and debugging output.
    pub(crate) fn stack_to_vec(&self, handle: StackHandle) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.depth(handle));
        let mut cur = handle;
        while cur != StackHandle::ROOT {
            out.push(self.nodes[cur.0 as usize].node);
            cur = StackHandle(self.nodes[cur.0 as usize].parent);
        }
        out.reverse();
        out
    }

    /// Returns `true` if only the root sentinel exists.
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_top_depth() {
        let mut tree = PersistentStackTree::new();
        let a = tree.push(StackHandle::ROOT, NodeId(10));
        let b = tree.push(a, NodeId(20));
        let c = tree.push(b, NodeId(30));
        assert_eq!(tree.depth(c), 3);
        assert_eq!(tree.top(c), Some(NodeId(30)));
        assert_eq!(
            tree.stack_to_vec(c),
            vec![NodeId(10), NodeId(20), NodeId(30)]
        );
        assert_eq!(tree.pop(c), b);
        assert_eq!(tree.pop(b), a);
        assert_eq!(tree.pop(a), StackHandle::ROOT);
        assert_eq!(tree.top(StackHandle::ROOT), None);
    }

    #[test]
    fn memoized_push_shares_nodes() {
        let mut tree = PersistentStackTree::new();
        let a1 = tree.push(StackHandle::ROOT, NodeId(1));
        let a2 = tree.push(StackHandle::ROOT, NodeId(1));
        assert_eq!(a1, a2);
        assert_eq!(tree.len(), 2);
        let b1 = tree.push(a1, NodeId(2));
        let b2 = tree.push(a2, NodeId(2));
        assert_eq!(b1, b2);
        assert_eq!(tree.len(), 3);
        // A different node creates a branch, not a copy of the shared prefix.
        let c = tree.push(a1, NodeId(3));
        assert_ne!(c, b1);
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn branching_does_not_copy_prefixes() {
        let mut tree = PersistentStackTree::new();
        // Simulate a deep shared stack with many branches at the top, as
        // created by grammar ambiguity.
        let mut deep = StackHandle::ROOT;
        for i in 0..100 {
            deep = tree.push(deep, NodeId(i));
        }
        let before = tree.len();
        for j in 0..50 {
            let _branch = tree.push(deep, NodeId(1000 + j));
        }
        // Only one node per branch was allocated.
        assert_eq!(tree.len(), before + 50);
    }

    #[test]
    fn clear_forgets_every_stack_but_keeps_the_arena() {
        let mut tree = PersistentStackTree::new();
        let a = tree.push(StackHandle::ROOT, NodeId(1));
        tree.push(a, NodeId(2));
        tree.push(StackHandle::ROOT, NodeId(3));
        let capacity = tree.nodes.capacity();
        tree.clear();
        assert!(tree.is_empty());
        assert_eq!(tree.nodes.capacity(), capacity);
        // Nothing is memoized any more: the same pushes build a new tree.
        let b = tree.push(StackHandle::ROOT, NodeId(3));
        assert_eq!(tree.stack_to_vec(b), vec![NodeId(3)]);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn replace_top_behaves_like_pop_push() {
        let mut tree = PersistentStackTree::new();
        let a = tree.push(StackHandle::ROOT, NodeId(1));
        let b = tree.push(a, NodeId(2));
        let c = tree.replace_top(b, NodeId(5));
        assert_eq!(tree.stack_to_vec(c), vec![NodeId(1), NodeId(5)]);
        assert_eq!(tree.pop(c), a);
    }

    #[test]
    #[should_panic(expected = "cannot pop the empty stack")]
    fn popping_root_panics() {
        let tree = PersistentStackTree::new();
        let _ = tree.pop(StackHandle::ROOT);
    }

    #[test]
    fn rollback_is_just_keeping_old_handles() {
        let mut tree = PersistentStackTree::new();
        let step0 = tree.push(StackHandle::ROOT, NodeId(1));
        let step1 = tree.replace_top(step0, NodeId(2));
        let step2 = tree.push(step1, NodeId(3));
        // "Rolling back" to step0 requires no tree mutation at all.
        assert_eq!(tree.stack_to_vec(step0), vec![NodeId(1)]);
        assert_eq!(tree.stack_to_vec(step2), vec![NodeId(2), NodeId(3)]);
    }
}
