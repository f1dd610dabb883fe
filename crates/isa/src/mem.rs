//! A sparse, byte-addressed, little-endian memory.
//!
//! Both modeled ISAs are little-endian (the paper assumes matching
//! endianness between guest and host). The memory is page-sparse so that
//! widely separated code / global / stack regions do not allocate the
//! whole address space.
//!
//! # Hot path
//!
//! Pages live in a stable arena (`data`) addressed through a page-id →
//! slot index; the emulation hot path avoids the `HashMap` probe with a
//! one-entry *last-page cache* per access side (read and write). Aligned
//! `W16`/`W32` accesses that provably sit inside one page are performed
//! as single word operations (`from_le_bytes`/`to_le_bytes`); unaligned
//! or page-crossing accesses fall back to the byte loop. Slots are never
//! removed or reordered, so a cached `(page, slot)` pair can only go
//! stale by pointing at a page that is still resident — never at freed
//! or moved storage.
//!
//! # Self-modifying code protection
//!
//! A dynamic translator must notice guest stores into bytes it has
//! already translated. The memory keeps a per-page *code bitmap*
//! ([`Memory::mark_code`]) and every store path checks the bit for the
//! page(s) it touches; hits are appended to a store log the translator
//! drains with [`Memory::take_code_writes`] and filters against its
//! recorded block ranges. The check is one shift + one indexed load on
//! the store fast path and the bitmap starts empty, so programs that
//! never mark code pay a single bounds-checked `Vec::get` per store.
//! Marks are page-granular and sticky (spurious hits are filtered by
//! the consumer against exact block byte ranges).

use crate::bits::Width;
use std::cell::Cell;
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// Sentinel page id for an empty last-page cache: real page ids fit in
/// 20 bits (`addr >> 12`), so `u32::MAX` can never match.
const NO_PAGE: u32 = u32::MAX;

/// A sparse 32-bit little-endian byte-addressable memory.
///
/// Reads of never-written bytes return zero, which keeps concrete
/// interpretation deterministic.
///
/// ```
/// use ldbt_isa::{Memory, Width};
/// let mut m = Memory::new();
/// m.write(0xfffc, 0x1122_3344, Width::W32);
/// assert_eq!(m.read(0xfffc, Width::W32), 0x1122_3344);
/// assert_eq!(m.read(0xfffe, Width::W8), 0x22);
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page id (`addr >> 12`) → slot in `data`.
    index: HashMap<u32, u32>,
    /// Page storage; slots are append-only and never move.
    data: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Last page resolved by a read: `(page id, slot)`.
    rcache: Cell<(u32, u32)>,
    /// Last page resolved by a write: `(page id, slot)`.
    wcache: Cell<(u32, u32)>,
    /// Per-page "contains translated code" bitmap: bit `page & 63` of
    /// word `page >> 6`. Lazily grown, so it stays empty (and the store
    /// check trivially cheap) until something calls [`Memory::mark_code`].
    code_bitmap: Vec<u64>,
    /// Stores that hit a marked page: `(addr, len)` spans, in order.
    code_writes: Vec<(u32, u32)>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            index: HashMap::new(),
            data: Vec::new(),
            rcache: Cell::new((NO_PAGE, 0)),
            wcache: Cell::new((NO_PAGE, 0)),
            code_bitmap: Vec::new(),
            code_writes: Vec::new(),
        }
    }
}

impl Memory {
    /// Create an empty (all-zero) memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// The slot of a resident page, via the read-side last-page cache.
    #[inline]
    fn read_slot(&self, page: u32) -> Option<usize> {
        let (cp, cs) = self.rcache.get();
        if cp == page {
            return Some(cs as usize);
        }
        let slot = *self.index.get(&page)?;
        self.rcache.set((page, slot));
        Some(slot as usize)
    }

    /// The slot of a page for writing (allocating it if absent), via the
    /// write-side last-page cache.
    #[inline]
    fn write_slot(&mut self, page: u32) -> usize {
        let (cp, cs) = self.wcache.get();
        if cp == page {
            return cs as usize;
        }
        let slot = match self.index.get(&page) {
            Some(&s) => s,
            None => {
                let s = self.data.len() as u32;
                self.data.push(Box::new([0u8; PAGE_SIZE]));
                self.index.insert(page, s);
                s
            }
        };
        self.wcache.set((page, slot));
        slot as usize
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.read_slot(addr >> PAGE_SHIFT) {
            Some(slot) => self.data[slot][(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Raw byte store, no code-page check — the shared primitive under
    /// every public write path (which log a span *once* before poking).
    #[inline]
    fn poke(&mut self, addr: u32, value: u8) {
        let slot = self.write_slot(addr >> PAGE_SHIFT);
        self.data[slot][(addr & PAGE_MASK) as usize] = value;
    }

    /// Is `page`'s code bit set? Pages beyond the lazily-grown bitmap
    /// are unmarked, so the common case is one bounds-checked load.
    #[inline]
    fn page_marked(&self, page: u32) -> bool {
        match self.code_bitmap.get((page >> 6) as usize) {
            Some(w) => w & (1u64 << (page & 63)) != 0,
            None => false,
        }
    }

    /// Record a store span in the code-write log iff it touches a marked
    /// page. `len` must be nonzero.
    #[inline]
    fn note_store(&mut self, addr: u32, len: u32) {
        let first = addr >> PAGE_SHIFT;
        let last = addr.wrapping_add(len - 1) >> PAGE_SHIFT;
        if first == last {
            // Fast path: span inside one page — one bitmap probe.
            if self.page_marked(first) {
                self.code_writes.push((addr, len));
            }
            return;
        }
        let mut p = first;
        loop {
            if self.page_marked(p) {
                self.code_writes.push((addr, len));
                return;
            }
            if p == last {
                return;
            }
            p = p.wrapping_add(1);
        }
    }

    /// Mark the pages overlapped by `[addr, addr + len)` as containing
    /// translated code: subsequent stores into them land in the
    /// code-write log. Marks are sticky (page-granular; the consumer
    /// filters by exact range).
    pub fn mark_code(&mut self, addr: u32, len: u32) {
        if len == 0 {
            return;
        }
        let first = addr >> PAGE_SHIFT;
        let last = addr.wrapping_add(len - 1) >> PAGE_SHIFT;
        let mut p = first;
        loop {
            let w = (p >> 6) as usize;
            if self.code_bitmap.len() <= w {
                self.code_bitmap.resize(w + 1, 0);
            }
            self.code_bitmap[w] |= 1u64 << (p & 63);
            if p == last {
                return;
            }
            p = p.wrapping_add(1);
        }
    }

    /// Whether every page overlapped by `[addr, addr + len)` is marked
    /// (the code cache's invariant checker reads marks back through this).
    pub fn code_marked(&self, addr: u32, len: u32) -> bool {
        let last = addr.wrapping_add(len.saturating_sub(1)) >> PAGE_SHIFT;
        len == 0 || ((addr >> PAGE_SHIFT)..=last).all(|p| self.page_marked(p))
    }

    /// Whether any page is marked as containing translated code.
    pub fn has_code_marks(&self) -> bool {
        self.code_bitmap.iter().any(|w| *w != 0)
    }

    /// Clear every code-page mark (and the pending store log). Used when
    /// the consumer flushes its whole translation cache.
    pub fn clear_code_marks(&mut self) {
        self.code_bitmap.clear();
        self.code_writes.clear();
    }

    /// Whether stores into marked pages are pending in the log — the
    /// dispatcher's cheap "anything to do?" probe.
    #[inline]
    pub fn has_code_writes(&self) -> bool {
        !self.code_writes.is_empty()
    }

    /// Drain the log of stores that hit marked code pages, in store
    /// order. Spans are page-filtered only; callers intersect them with
    /// exact translated ranges.
    pub fn take_code_writes(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.code_writes)
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.note_store(addr, 1);
        self.poke(addr, value);
    }

    /// Read `width` bytes starting at `addr`, little-endian, zero-extended.
    ///
    /// Aligned `W16`/`W32` reads (which cannot cross a page) go through
    /// the word-wide fast path; everything else takes the byte loop.
    #[inline]
    pub fn read(&self, addr: u32, width: Width) -> u32 {
        let off = (addr & PAGE_MASK) as usize;
        match width {
            Width::W8 => self.read_u8(addr) as u32,
            Width::W16 if off & 1 == 0 => match self.read_slot(addr >> PAGE_SHIFT) {
                Some(slot) => {
                    let p = &self.data[slot];
                    u16::from_le_bytes([p[off], p[off + 1]]) as u32
                }
                None => 0,
            },
            Width::W32 if off & 3 == 0 => match self.read_slot(addr >> PAGE_SHIFT) {
                Some(slot) => {
                    let p = &self.data[slot];
                    u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
                }
                None => 0,
            },
            _ => self.read_slow(addr, width),
        }
    }

    /// The byte-loop fallback for unaligned or page-crossing reads.
    fn read_slow(&self, addr: u32, width: Width) -> u32 {
        let mut v: u32 = 0;
        for i in 0..width.bytes() {
            v |= (self.read_u8(addr.wrapping_add(i)) as u32) << (8 * i);
        }
        v
    }

    /// Write the low `width` bytes of `value` at `addr`, little-endian.
    ///
    /// Aligned `W16`/`W32` writes go through the word-wide fast path;
    /// everything else takes the byte loop.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32, width: Width) {
        let off = (addr & PAGE_MASK) as usize;
        match width {
            Width::W8 => self.write_u8(addr, value as u8),
            Width::W16 if off & 1 == 0 => {
                self.note_store(addr, 2);
                let slot = self.write_slot(addr >> PAGE_SHIFT);
                self.data[slot][off..off + 2].copy_from_slice(&(value as u16).to_le_bytes());
            }
            Width::W32 if off & 3 == 0 => {
                self.note_store(addr, 4);
                let slot = self.write_slot(addr >> PAGE_SHIFT);
                self.data[slot][off..off + 4].copy_from_slice(&value.to_le_bytes());
            }
            _ => self.write_slow(addr, value, width),
        }
    }

    /// The byte-loop fallback for unaligned or page-crossing writes.
    /// Logs the span once, then pokes raw bytes.
    fn write_slow(&mut self, addr: u32, value: u32, width: Width) {
        self.note_store(addr, width.bytes());
        for i in 0..width.bytes() {
            self.poke(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Copy a byte slice into memory starting at `addr`, page-chunked.
    ///
    /// Drops both last-page caches afterwards: bulk loads rewrite whole
    /// regions (image loading, snapshot restore) and must never leave a
    /// stale-looking cache entry behind.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        if !bytes.is_empty() {
            self.note_store(addr, bytes.len() as u32);
        }
        let mut cur = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (cur & PAGE_MASK) as usize;
            let room = PAGE_SIZE - off;
            let n = room.min(rest.len());
            let slot = self.write_slot(cur >> PAGE_SHIFT);
            self.data[slot][off..off + n].copy_from_slice(&rest[..n]);
            cur = cur.wrapping_add(n as u32);
            rest = &rest[n..];
        }
        self.rcache.set((NO_PAGE, 0));
        self.wcache.set((NO_PAGE, 0));
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i as u32))).collect()
    }

    /// Number of resident pages (for diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// The lowest address whose byte differs between the two memories,
    /// skipping addresses for which `ignore` returns `true`.
    ///
    /// Never-written pages compare as all-zero on both sides, matching
    /// the zero-fill read semantics; the scan covers the union of
    /// resident pages. Used by the DBT watchdog to compare guest-visible
    /// memory while excluding the host-private env and stack regions.
    pub fn first_difference(&self, other: &Memory, ignore: impl Fn(u32) -> bool) -> Option<u32> {
        const ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        let mut page_ids: Vec<u32> = self.index.keys().chain(other.index.keys()).copied().collect();
        page_ids.sort_unstable();
        page_ids.dedup();
        for p in page_ids {
            let a = self.index.get(&p).map_or(&ZERO, |&s| &*self.data[s as usize]);
            let b = other.index.get(&p).map_or(&ZERO, |&s| &*other.data[s as usize]);
            if a == b {
                continue;
            }
            for i in 0..PAGE_SIZE {
                if a[i] != b[i] {
                    let addr = (p << PAGE_SHIFT) | i as u32;
                    if !ignore(addr) {
                        return Some(addr);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read(0, Width::W32), 0);
        assert_eq!(m.read(0xdead_beef, Width::W8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write(0x100, 0x0a0b_0c0d, Width::W32);
        assert_eq!(m.read_u8(0x100), 0x0d);
        assert_eq!(m.read_u8(0x101), 0x0c);
        assert_eq!(m.read_u8(0x102), 0x0b);
        assert_eq!(m.read_u8(0x103), 0x0a);
        assert_eq!(m.read(0x100, Width::W16), 0x0c0d);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u32 - 2; // straddles the first page boundary
        m.write(addr, 0x1234_5678, Width::W32);
        assert_eq!(m.read(addr, Width::W32), 0x1234_5678);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_width_writes_do_not_clobber_neighbors() {
        let mut m = Memory::new();
        m.write(0x200, 0xffff_ffff, Width::W32);
        m.write(0x201, 0x00, Width::W8);
        assert_eq!(m.read(0x200, Width::W32), 0xffff_00ff);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        let data = [1u8, 2, 3, 4, 5];
        m.write_bytes(0x300, &data);
        assert_eq!(m.read_bytes(0x300, 5), data.to_vec());
    }

    #[test]
    fn write_bytes_spanning_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).cycle().take(3 * PAGE_SIZE / 2).map(|b| b as u8).collect();
        let addr = PAGE_SIZE as u32 - 100;
        m.write_bytes(addr, &data);
        assert_eq!(m.read_bytes(addr, data.len()), data);
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn unaligned_word_access_falls_back_correctly() {
        let mut m = Memory::new();
        // Unaligned W32 and W16 read/write at every misalignment.
        for mis in 1..4u32 {
            let addr = 0x400 + 16 * mis + mis;
            m.write(addr, 0x8899_aabb, Width::W32);
            assert_eq!(m.read(addr, Width::W32), 0x8899_aabb, "mis={mis}");
            // Bytewise view matches little-endian order.
            assert_eq!(m.read_u8(addr), 0xbb);
            assert_eq!(m.read_u8(addr + 3), 0x88);
        }
        let addr = 0x501;
        m.write(addr, 0xbeef, Width::W16);
        assert_eq!(m.read(addr, Width::W16), 0xbeef);
        assert_eq!(m.read_u8(addr), 0xef);
        assert_eq!(m.read_u8(addr + 1), 0xbe);
    }

    #[test]
    fn page_cross_w32_and_w16() {
        let mut m = Memory::new();
        // W32 across a page boundary, all split points.
        for k in 1..4u32 {
            let addr = 4 * PAGE_SIZE as u32 - k;
            m.write(addr, 0x0102_0304, Width::W32);
            assert_eq!(m.read(addr, Width::W32), 0x0102_0304, "split={k}");
        }
        // W16 across a page boundary.
        let addr = 8 * PAGE_SIZE as u32 - 1;
        m.write(addr, 0xa55a, Width::W16);
        assert_eq!(m.read(addr, Width::W16), 0xa55a);
        assert_eq!(m.read_u8(addr), 0x5a);
        assert_eq!(m.read_u8(addr + 1), 0xa5);
    }

    #[test]
    fn last_page_cache_invalidated_by_write_bytes() {
        let mut m = Memory::new();
        // Warm both caches on the page.
        m.write(0x1000, 0x1111_1111, Width::W32);
        assert_eq!(m.read(0x1000, Width::W32), 0x1111_1111);
        // Bulk overwrite through write_bytes must be visible immediately
        // (and drops the caches).
        m.write_bytes(0x1000, &[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(m.read(0x1000, Width::W32), 0xefbe_adde);
        assert_eq!(m.read_u8(0x1003), 0xef);
        // Writes after the invalidation still land on the right page.
        m.write(0x1ffc, 7, Width::W32);
        assert_eq!(m.read(0x1ffc, Width::W32), 7);
    }

    #[test]
    fn read_cache_follows_page_switches() {
        let mut m = Memory::new();
        m.write(0x2000, 0xaa, Width::W8);
        m.write(0x7000, 0xbb, Width::W8);
        // Alternate between pages: the one-entry cache must re-resolve.
        for _ in 0..4 {
            assert_eq!(m.read_u8(0x2000), 0xaa);
            assert_eq!(m.read_u8(0x7000), 0xbb);
        }
        // Reading a non-resident page does not disturb the cache.
        assert_eq!(m.read_u8(0x9123), 0);
        assert_eq!(m.read_u8(0x2000), 0xaa);
    }

    #[test]
    fn clone_carries_data_and_stays_coherent() {
        let mut a = Memory::new();
        a.write(0x3000, 0x1234_5678, Width::W32);
        assert_eq!(a.read(0x3000, Width::W32), 0x1234_5678); // warm rcache
        let mut b = a.clone();
        b.write(0x3000, 0x9abc_def0, Width::W32);
        assert_eq!(a.read(0x3000, Width::W32), 0x1234_5678, "clone is independent");
        assert_eq!(b.read(0x3000, Width::W32), 0x9abc_def0);
    }

    #[test]
    fn first_difference_scans_union_and_honors_ignore() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert_eq!(a.first_difference(&b, |_| false), None);
        // A page resident on only one side but all-zero is not a diff.
        a.write(0x5000, 0, Width::W32);
        assert_eq!(a.first_difference(&b, |_| false), None);
        b.write(0x9002, 7, Width::W8);
        a.write(0x9004, 1, Width::W8);
        assert_eq!(a.first_difference(&b, |_| false), Some(0x9002));
        assert_eq!(b.first_difference(&a, |_| false), Some(0x9002), "symmetric");
        assert_eq!(a.first_difference(&b, |addr| addr == 0x9002), Some(0x9004));
        assert_eq!(a.first_difference(&b, |addr| addr >= 0x9000), None);
    }

    #[test]
    fn wrapping_addresses() {
        let mut m = Memory::new();
        m.write(u32::MAX, 0xab, Width::W8);
        m.write(0, 0xcd, Width::W8);
        assert_eq!(m.read(u32::MAX, Width::W16), 0xcdab);
    }

    #[test]
    fn unmarked_stores_log_nothing() {
        let mut m = Memory::new();
        m.write(0x1000, 0x1234_5678, Width::W32);
        m.write_bytes(0x2000, &[1, 2, 3]);
        m.write_u8(0x3000, 9);
        assert!(!m.has_code_marks());
        assert!(!m.has_code_writes());
        assert_eq!(m.take_code_writes(), vec![]);
    }

    #[test]
    fn marked_page_catches_every_store_path() {
        let mut m = Memory::new();
        m.mark_code(0x1_0000, 8); // marks page 0x10 only
        assert!(m.has_code_marks());
        m.write_u8(0x1_0040, 1);
        m.write(0x1_0080, 2, Width::W16);
        m.write(0x1_00c0, 3, Width::W32);
        m.write(0x1_0101, 4, Width::W32); // unaligned → write_slow
        m.write_bytes(0x1_0200, &[5, 6]);
        m.write(0x2_0000, 7, Width::W32); // different page: unlogged
        assert_eq!(
            m.take_code_writes(),
            vec![(0x1_0040, 1), (0x1_0080, 2), (0x1_00c0, 4), (0x1_0101, 4), (0x1_0200, 2)]
        );
        assert!(!m.has_code_writes(), "take drains the log");
        m.write_u8(0x1_0000, 0xff);
        assert_eq!(m.take_code_writes(), vec![(0x1_0000, 1)], "marks are sticky");
    }

    #[test]
    fn page_crossing_store_hits_either_marked_page() {
        let mut m = Memory::new();
        m.mark_code(0x5000, 4); // page 5 only
                                // W32 straddling pages 4 and 5: span starts on the unmarked page.
        m.write(0x4ffe, 0xdead_beef, Width::W32);
        // write_bytes span ending inside page 5.
        m.write_bytes(0x4f00, &vec![0u8; 0x140]);
        // And one fully inside the unmarked page 4.
        m.write(0x4000, 1, Width::W32);
        assert_eq!(m.take_code_writes(), vec![(0x4ffe, 4), (0x4f00, 0x140)]);
    }

    #[test]
    fn mark_code_spans_pages_and_clear_resets() {
        let mut m = Memory::new();
        m.mark_code(0x1ffc, 8); // straddles pages 1 and 2
        m.write(0x1f00, 1, Width::W32);
        m.write(0x2f00, 2, Width::W32);
        assert_eq!(m.take_code_writes(), vec![(0x1f00, 4), (0x2f00, 4)]);
        m.clear_code_marks();
        assert!(!m.has_code_marks());
        m.write(0x1f00, 3, Width::W32);
        assert!(!m.has_code_writes());
        m.mark_code(0x1000, 0);
        assert!(!m.has_code_marks(), "zero-length mark is a no-op");
    }

    #[test]
    fn clone_carries_code_marks_and_log() {
        let mut a = Memory::new();
        a.mark_code(0x1000, 4);
        a.write(0x1000, 7, Width::W32);
        let mut b = a.clone();
        assert_eq!(b.take_code_writes(), vec![(0x1000, 4)]);
        b.write(0x1004, 8, Width::W32);
        assert!(b.has_code_writes(), "clone keeps the marks");
        assert_eq!(a.take_code_writes(), vec![(0x1000, 4)], "sides are independent");
    }
}
