//! The machine's control stack.
//!
//! TML's continuations never escape (paper §2.2, rule 3), so the return
//! continuation of a non-tail call can live on a stack instead of the
//! heap. A frame holds the blocks of the call's continuation abstractions
//! (its *exits*: the normal return and, when the call's `cₑ` is fresh
//! too, the exception landing pad) and their shared captures; the callee
//! receives a [`StackCont`] per exit. Invoking one drops every frame above
//! it and pops it; its capture buffer is swapped in as the environment of
//! the exit block, and the emptied environment buffer is kept for the next
//! push. In steady state a push and a pop allocate nothing, and each
//! capture is written once.
//!
//! A [`StackCont`] is checked before use: its frame must be live (same
//! generation) and belong to the current native level (at or above
//! `base`). A stale or foreign one is a typed trap, never an index into a
//! frame it does not name.
//!
//! Where a continuation must outlive the stack, [`Stack::lift`] copies
//! its frame into an ordinary [`TransientClosure`] that remembers the
//! depth it returns to, and leaves the frame in place. Frames are copied
//! once each, bottom up (a frame's captures can only name frames below
//! it), so even a deep first copy is a loop. A continuation closure or
//! loop group that holds stack continuations is lifted too: a copy whose
//! environment holds the frames' heap copies instead. Dropping frames
//! truncates a vector.

use crate::machine::VmError;
use crate::rval::{Capture, ClosureGroup, RVal, StackCont, TransientClosure};
use std::collections::HashMap;
use std::rc::Rc;

/// A return frame: its exits' blocks ([`NO_EXIT`] when absent), the
/// generation it was pushed with, and its captures.
struct Frame {
    exits: [u32; 2],
    gen: u64,
    caps: Vec<RVal>,
}

/// The block of a frame's second exit when it has none.
pub(crate) const NO_EXIT: u32 = u32::MAX;

/// Capture buffers kept for reuse. A return from deep recursion frees
/// the buffers beyond this instead of holding them for the machine's life.
const MAX_SPARE: usize = 256;

/// Return frames, innermost last.
#[derive(Default)]
pub(crate) struct Stack {
    frames: Vec<Frame>,
    /// Emptied capture buffers, reused by the next pushes.
    spare: Vec<Vec<RVal>>,
    /// Heap copies of the exits of `frames[..copies.len()]`.
    copies: Vec<[Option<Rc<TransientClosure>>; 2]>,
    /// Frames pushed so far: the next frame's generation.
    pushes: u64,
    /// Frames below this depth belong to enclosing native levels.
    pub(crate) base: usize,
}

impl Stack {
    /// Number of live frames.
    pub(crate) fn depth(&self) -> usize {
        self.frames.len()
    }

    /// An empty capture buffer for the next frame.
    #[inline]
    pub(crate) fn buffer(&mut self) -> Vec<RVal> {
        self.spare.pop().unwrap_or_default()
    }

    /// Push a frame with `exits` and the captures `caps`. Returns the
    /// continuation of its first exit (the others differ only in `exit`).
    #[inline]
    pub(crate) fn push(&mut self, exits: [u32; 2], caps: Vec<RVal>) -> StackCont {
        let k = StackCont {
            depth: self.frames.len() as u32,
            gen: self.pushes,
            exit: 0,
        };
        self.frames.push(Frame {
            exits,
            gen: self.pushes,
            caps,
        });
        self.pushes += 1;
        k
    }

    /// The depth of the live frame `k` names in this native level, and
    /// the block of `k`'s exit.
    #[inline]
    fn live(&self, k: &StackCont) -> Result<(usize, u32), VmError> {
        let d = k.depth as usize;
        match self.frames.get(d) {
            Some(f) if d >= self.base && f.gen == k.gen => match f.exits.get(usize::from(k.exit)) {
                Some(&code) if code != NO_EXIT => Ok((d, code)),
                _ => Err(stale(k)),
            },
            _ => Err(stale(k)),
        }
    }

    /// Pop the frame `k` names, dropping the frames above it; its
    /// captures become `env` (which must be empty). Returns the exit's
    /// block.
    #[inline]
    pub(crate) fn pop(&mut self, k: StackCont, env: &mut Vec<RVal>) -> Result<u32, VmError> {
        let (d, code) = self.live(&k)?;
        self.unwind(d + 1);
        if let Some(mut f) = self.frames.pop() {
            std::mem::swap(env, &mut f.caps);
            if self.spare.len() < MAX_SPARE {
                self.spare.push(f.caps);
            }
        }
        self.copies.truncate(d);
        Ok(code)
    }

    /// Drop every frame at or above `depth` (never below `base`).
    #[inline]
    pub(crate) fn unwind(&mut self, depth: usize) {
        let depth = depth.max(self.base);
        if depth < self.frames.len() {
            self.frames.truncate(depth);
            self.copies.truncate(depth);
        }
    }

    /// `v` fit to outlive the stack: each stack continuation it holds,
    /// itself or through continuation closures and groups, replaced by
    /// the heap copy of its frame's exit. A value that holds none is `v`
    /// itself. The second value counts the heap closures made.
    pub(crate) fn lift(&mut self, v: RVal) -> Result<(RVal, u64), VmError> {
        let mut made = 0;
        let v = self.lift_in(v, true, &mut made)?;
        Ok((v, made))
    }

    /// [`Stack::lift`]; `grow` allows copying frames not copied yet (a
    /// frame's captures may only name frames copied already).
    fn lift_in(&mut self, v: RVal, grow: bool, made: &mut u64) -> Result<RVal, VmError> {
        if !v.holds_frames() {
            return Ok(v);
        }
        // The closures and groups reached, each lifted once, after the
        // ones it holds (post-order, without host recursion: the nesting
        // is as deep as the program makes it). Keyed by address.
        let mut done: HashMap<*const (), RVal> = HashMap::new();
        let mut work = vec![(v.clone(), false)];
        while let Some((n, ready)) = work.pop() {
            let Some(key) = node(&n) else {
                continue;
            };
            if done.contains_key(&key) {
                continue;
            }
            if !ready {
                work.push((n.clone(), true));
                let held: Vec<RVal> = match &n {
                    RVal::Clo(c) => c
                        .env
                        .iter()
                        .filter(|x| node(x).is_some())
                        .cloned()
                        .collect(),
                    RVal::Group(g, _) => g
                        .members
                        .iter()
                        .flat_map(|m| m.1.iter())
                        .filter_map(|c| match c {
                            Capture::Val(x) if node(x).is_some() => Some(x.clone()),
                            _ => None,
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                work.extend(held.into_iter().map(|x| (x, false)));
                continue;
            }
            let lifted = match &n {
                RVal::Clo(c) => {
                    let mut env = Vec::with_capacity(c.env.len());
                    for x in &c.env {
                        env.push(self.lifted(x, &done, grow, made)?);
                    }
                    *made += 1;
                    RVal::Clo(Rc::new(TransientClosure {
                        code: c.code,
                        env,
                        frame: c.frame,
                        holds_frames: false,
                    }))
                }
                RVal::Group(g, j) => {
                    let mut members = Vec::with_capacity(g.members.len());
                    for (code, caps) in g.members.iter() {
                        let mut env = Vec::with_capacity(caps.len());
                        for c in caps.iter() {
                            env.push(match c {
                                Capture::Val(x) => Capture::Val(self.lifted(x, &done, grow, made)?),
                                Capture::Member(m) => Capture::Member(*m),
                            });
                        }
                        members.push((*code, env.into_boxed_slice()));
                    }
                    *made += members.len() as u64;
                    let group = ClosureGroup::new(members.into_boxed_slice(), g.frame);
                    RVal::Group(Rc::new(group), *j)
                }
                _ => continue,
            };
            done.insert(key, lifted);
        }
        self.lifted(&v, &done, grow, made)
    }

    /// The lifted form of `x`: a stack continuation's heap copy, or the
    /// entry of `done` for a closure or group that holds frames.
    fn lifted(
        &mut self,
        x: &RVal,
        done: &HashMap<*const (), RVal>,
        grow: bool,
        made: &mut u64,
    ) -> Result<RVal, VmError> {
        match (x, node(x).and_then(|key| done.get(&key))) {
            (RVal::Cont(k), _) if grow => {
                let (d, _) = self.live(k)?;
                while self.copies.len() <= d {
                    self.copy_next(made)?;
                }
                self.copied(k).map(RVal::Clo).ok_or_else(|| stale(k))
            }
            (RVal::Cont(k), _) => self.copied(k).map(RVal::Clo).ok_or_else(|| stale(k)),
            (RVal::Group(_, j), Some(RVal::Group(g, _))) => Ok(RVal::Group(Rc::clone(g), *j)),
            (_, Some(v)) => Ok(v.clone()),
            _ => Ok(x.clone()),
        }
    }

    /// Copy the lowest frame not copied yet to the heap: one closure per
    /// exit, over the frame's lifted captures.
    fn copy_next(&mut self, made: &mut u64) -> Result<(), VmError> {
        let j = self.copies.len();
        let (exits, caps) = match self.frames.get(j) {
            Some(f) => (f.exits, f.caps.clone()),
            None => return Err(VmError::Trap(format!("no frame @{j} to copy"))),
        };
        let mut env = Vec::with_capacity(caps.len());
        for v in caps {
            env.push(self.lift_in(v, false, made)?);
        }
        let copy = |code| {
            (code != NO_EXIT).then(|| {
                Rc::new(TransientClosure {
                    code,
                    env: env.clone(),
                    frame: Some(j as u32),
                    holds_frames: false,
                })
            })
        };
        let copies = exits.map(copy);
        *made += copies.iter().flatten().count() as u64;
        self.copies.push(copies);
        Ok(())
    }

    /// The heap copy of `k`'s exit, if its frame is live and copied.
    fn copied(&self, k: &StackCont) -> Option<Rc<TransientClosure>> {
        let d = k.depth as usize;
        if self.frames.get(d)?.gen != k.gen {
            return None;
        }
        self.copies.get(d)?.get(usize::from(k.exit))?.clone()
    }
}

/// The address of a closure or group that holds frames: a value
/// [`Stack::lift`] rebuilds.
fn node(v: &RVal) -> Option<*const ()> {
    match v {
        RVal::Clo(c) if c.holds_frames => Some(Rc::as_ptr(c).cast()),
        RVal::Group(g, _) if g.holds_frames => Some(Rc::as_ptr(g).cast()),
        _ => None,
    }
}

/// The trap for a stack continuation whose frame is gone (or belongs to
/// an enclosing native level).
fn stale(k: &StackCont) -> VmError {
    VmError::Trap(format!(
        "continuation @{} invoked after its frame returned",
        k.depth
    ))
}
