//! The dense slot index behind the per-attach weight walk.
//!
//! Every stored entry owns a `u32` slot, handed out in attach order: the
//! tangle is append-only, so a slot is never freed and the slot number
//! is the entry's attach sequence. The slot records the entry's two
//! parent slots (resolved once, at attach), its weight, a
//! frontier/sealed state byte and a generation-stamped visit mark.
//! The ancestor walk of [`crate::graph::Tangle::attach`] is then a
//! depth-first search over plain arrays: no hashing of 32-byte ids, no
//! seen-set (a slot is visited when its mark equals the walk's
//! generation), and a stack reused across attaches.
//!
//! The slot is the only place an entry's weight lives. A frontier slot
//! holds the live weight. A sealed slot holds it as an offset against the
//! tangle's pass counter (`weight - pass`, wrapping), so one increment of
//! the counter raises every sealed weight at once; see
//! [`crate::graph::Tangle::seal_to`].

use crate::tx::TxId;

/// Parent link meaning "no parent": the genesis's links, and the second
/// link of a transaction that names the same parent twice.
pub(crate) const NO_SLOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// A frontier entry: the slot's `weight` is its live weight.
    Frontier,
    /// A sealed entry: the slot's `weight` is its weight minus the pass
    /// counter (wrapping).
    Sealed,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    parents: [u32; 2],
    weight: u64,
    mark: u32,
    state: SlotState,
}

/// Slot-indexed parent links and weights of one tangle.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotIndex {
    slots: Vec<Slot>,
    /// Id of the entry in each slot: the tangle's attach order (kept out
    /// of the hot `slots` array, which the weight walk scans).
    ids: Vec<TxId>,
    /// Mark of the current (or last) walk.
    generation: u32,
    stack: Vec<u32>,
    /// Sealed slots where the last frontier walk stopped.
    boundary: Vec<u32>,
}

impl SlotIndex {
    /// Gives `id` a frontier slot with the given parent links and weight.
    pub(crate) fn alloc(&mut self, id: TxId, parents: [u32; 2], weight: u64) -> u32 {
        let s = u32::try_from(self.slots.len())
            .ok()
            .filter(|&s| s != NO_SLOT)
            .expect("fewer than u32::MAX entries attached");
        self.slots.push(Slot {
            parents,
            weight,
            mark: 0,
            state: SlotState::Frontier,
        });
        self.ids.push(id);
        s
    }

    /// Id of the entry in a slot.
    pub(crate) fn id(&self, slot: u32) -> &TxId {
        &self.ids[slot as usize]
    }

    /// Every entry's id, by slot: the attach order.
    pub(crate) fn ids(&self) -> &[TxId] {
        &self.ids
    }

    /// Weight of a stored entry, given the tangle's pass counter.
    pub(crate) fn weight(&self, slot: u32, pass: u64) -> u64 {
        let s = &self.slots[slot as usize];
        match s.state {
            SlotState::Sealed => s.weight.wrapping_add(pass),
            SlotState::Frontier => s.weight,
        }
    }

    /// Returns true if the slot holds a sealed entry.
    pub(crate) fn is_sealed(&self, slot: u32) -> bool {
        self.slots[slot as usize].state == SlotState::Sealed
    }

    /// Moves a frontier slot into the sealed region at pass counter `pass`:
    /// its weight becomes an offset against the counter.
    pub(crate) fn seal(&mut self, slot: u32, pass: u64) {
        let s = &mut self.slots[slot as usize];
        s.state = SlotState::Sealed;
        s.weight = s.weight.wrapping_sub(pass);
    }

    /// Moves every sealed slot back into the frontier, writing back its
    /// weight at pass counter `pass`.
    pub(crate) fn unseal_all(&mut self, pass: u64) {
        for s in &mut self.slots {
            if s.state == SlotState::Sealed {
                s.state = SlotState::Frontier;
                s.weight = s.weight.wrapping_add(pass);
            }
        }
    }

    fn next_generation(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: clear every old mark so none can equal a new one.
            for s in &mut self.slots {
                s.mark = 0;
            }
            self.generation = 1;
        }
        self.generation
    }

    /// Adds one to the weight of every distinct frontier entry reachable
    /// from `parents` through frontier entries, and returns the distinct
    /// sealed slots where the walk stopped.
    pub(crate) fn bump_frontier_cone(&mut self, parents: [u32; 2]) -> &[u32] {
        let mark = self.next_generation();
        let Self {
            slots,
            stack,
            boundary,
            ..
        } = self;
        stack.clear();
        boundary.clear();
        let mut visit = |p: u32, stack: &mut Vec<u32>, slots: &mut [Slot]| {
            if p == NO_SLOT {
                return;
            }
            let s = &mut slots[p as usize];
            if s.mark == mark {
                return;
            }
            s.mark = mark;
            match s.state {
                SlotState::Frontier => stack.push(p),
                SlotState::Sealed => boundary.push(p),
            }
        };
        for p in parents {
            visit(p, stack, slots);
        }
        while let Some(cur) = stack.pop() {
            let s = &mut slots[cur as usize];
            s.weight += 1;
            let parents = s.parents;
            for p in parents {
                visit(p, stack, slots);
            }
        }
        &self.boundary
    }

    /// Continues the last [`SlotIndex::bump_frontier_cone`] walk into the
    /// sealed region: adds one to the weight of every distinct sealed
    /// entry reachable from its boundary. Parents of sealed entries are
    /// sealed, so this never re-enters the frontier.
    pub(crate) fn bump_sealed_cone(&mut self) {
        let mark = self.generation;
        let Self {
            slots,
            stack,
            boundary,
            ..
        } = self;
        stack.clear();
        stack.extend_from_slice(boundary);
        while let Some(cur) = stack.pop() {
            let s = &mut slots[cur as usize];
            s.weight = s.weight.wrapping_add(1);
            for p in s.parents {
                if p == NO_SLOT {
                    continue;
                }
                let s = &mut slots[p as usize];
                if s.mark != mark && s.state == SlotState::Sealed {
                    s.mark = mark;
                    stack.push(p);
                }
            }
        }
    }
}
