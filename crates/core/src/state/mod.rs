//! The *state* module of the model (Fig. 5): directory structure and file
//! contents, expressed over abstract references rather than blocks or inodes.

mod dir_heap;
mod meta;

pub use dir_heap::{DirHeap, DirRef, Entry, FileContent, FileRef};
pub use meta::Meta;
