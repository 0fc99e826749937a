/**
 * @file
 * Sparse paged functional memory.
 *
 * Holds the architectural memory contents of one simulated address
 * space. Pages are allocated on first touch and zero-filled, so reads of
 * untouched memory (e.g. down a mispredicted path) return 0 instead of
 * faulting.
 *
 * A small direct-mapped page-pointer cache sits in front of the page
 * hash map: the functional interpreter, loadProgramData, and the VCA
 * renamer's spill/fill traffic hit the same handful of pages over and
 * over, and the cache turns the per-word unordered_map lookup into an
 * index-compare-load. The cache holds raw word pointers, which is safe
 * because pages are node-stored in the map (pointers survive rehash)
 * and their backing vectors are sized once and never resized. clear()
 * and assignPages() invalidate every cached pointer by bumping a
 * generation counter when they erase pages.
 */

#ifndef VCA_MEM_SPARSE_MEMORY_HH
#define VCA_MEM_SPARSE_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace vca::mem {

class SparseMemory
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr Addr pageBytes = Addr(1) << pageShift;
    static constexpr unsigned wordsPerPage = pageBytes / 8;

    /** Read an aligned 64-bit word (unaligned addresses are rounded). */
    std::uint64_t
    read(Addr addr) const
    {
        if (const std::uint64_t *words = cachedWords(addr))
            return words[wordIndex(addr)];
        const Page *page = findPage(addr);
        if (!page)
            return 0; // never cache absence: a write may create the page
        cacheWords(addr, *page);
        return (*page)[wordIndex(addr)];
    }

    /** Write an aligned 64-bit word. */
    void
    write(Addr addr, std::uint64_t value)
    {
        if (std::uint64_t *words = cachedWords(addr)) {
            words[wordIndex(addr)] = value;
            return;
        }
        Page &page = getPage(addr);
        cacheWords(addr, page);
        page[wordIndex(addr)] = value;
    }

    /**
     * Read @p n consecutive words from aligned @p addr into @p out, a
     * page at a time; like read(), absent pages read as zero and are
     * not created.
     */
    void
    readWords(Addr addr, unsigned n, std::uint64_t *out) const
    {
        while (n) {
            const unsigned first = wordIndex(addr);
            const unsigned count = std::min(n, wordsPerPage - first);
            const std::uint64_t *words = cachedWords(addr);
            if (!words) {
                if (const Page *page = findPage(addr)) {
                    cacheWords(addr, *page);
                    words = page->data();
                }
            }
            if (words)
                std::copy_n(words + first, count, out);
            else
                std::fill_n(out, count, 0);
            addr += Addr(count) * 8;
            out += count;
            n -= count;
        }
    }

    /**
     * Overwrite the whole page at page-aligned @p base with
     * wordsPerPage words from @p words, creating it if absent: the same
     * image and page set as writing every word, zeros included.
     */
    void
    writePage(Addr base, const std::uint64_t *words)
    {
        auto [it, inserted] = pages_.try_emplace(pageNumber(base));
        if (inserted)
            it->second.assign(words, words + wordsPerPage);
        else // in place: cached word pointers stay valid
            std::copy_n(words, wordsPerPage, it->second.data());
    }

    /**
     * Write the nonzero words of @p words[0, n) to consecutive words
     * from @p addr, a page at a time. Zero words are not written, so a
     * page is created only where some word is nonzero and whatever a
     * zero word lands on survives: the same image and page set as
     * write() of each nonzero word.
     */
    void
    writeNonzeroWords(Addr addr, const std::uint64_t *words, size_t n)
    {
        while (n) {
            const unsigned first = wordIndex(addr);
            const size_t count =
                std::min<size_t>(n, wordsPerPage - first);
            const std::uint64_t *end = words + count;
            const std::uint64_t *w = std::find_if(
                words, end, [](std::uint64_t v) { return v != 0; });
            if (w != end) {
                std::uint64_t *dst = getPage(addr).data() + first;
                for (; w != end; ++w)
                    if (*w)
                        dst[w - words] = *w;
            }
            addr += Addr(count) * 8;
            words = end;
            n -= count;
        }
    }

    /** Read as IEEE double (bit pattern reinterpretation). */
    double
    readDouble(Addr addr) const
    {
        std::uint64_t bits = read(addr);
        double d;
        static_assert(sizeof(d) == sizeof(bits));
        __builtin_memcpy(&d, &bits, sizeof(d));
        return d;
    }

    void
    writeDouble(Addr addr, double value)
    {
        std::uint64_t bits;
        __builtin_memcpy(&bits, &value, sizeof(bits));
        write(addr, bits);
    }

    /** Number of pages currently allocated (for tests / footprint). */
    size_t allocatedPages() const { return pages_.size(); }

    /**
     * Visit every allocated page (unspecified order) as
     * fn(pageBaseAddr, words) with words pointing at wordsPerPage
     * uint64s. Used by the switch-in protocol to copy a whole
     * functional image — including zero words, so stale nonzero
     * destination contents cannot survive the transfer.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const auto &[pageNum, page] : pages_)
            fn(pageNum << pageShift, page.data());
    }

    /**
     * Make this image @p src with each page moved to the page-aligned
     * address relocate(pageBase); relocate must map distinct pages to
     * distinct pages. Every page of @p src is written in place
     * (writePage) and the pages it lacks are erased: the same page
     * set and words as clear() followed by writePage of each page,
     * but the pages both images hold keep their storage.
     */
    template <typename Relocate>
    void
    assignPages(const SparseMemory &src, Relocate &&relocate)
    {
        for (const auto &[pageNum, page] : src.pages_)
            writePage(relocate(pageNum << pageShift), page.data());
        if (pages_.size() == src.pages_.size())
            return; // every page here was just written
        std::vector<Addr> kept;
        kept.reserve(src.pages_.size());
        for (const auto &[pageNum, page] : src.pages_)
            kept.push_back(pageNumber(relocate(pageNum << pageShift)));
        std::sort(kept.begin(), kept.end());
        std::erase_if(pages_, [&](const auto &entry) {
            return !std::binary_search(kept.begin(), kept.end(),
                                       entry.first);
        });
        ++generation_;
    }

    /** Drop all contents (invalidates every cached page pointer). */
    void
    clear()
    {
        pages_.clear();
        ++generation_;
    }

  private:
    using Page = std::vector<std::uint64_t>;

    /** Direct-mapped page-pointer cache slots (power of two). */
    static constexpr unsigned cacheSlots = 16;

    struct CacheSlot
    {
        Addr pageNum = 0;
        std::uint64_t generation = 0; ///< valid iff == generation_
        std::uint64_t *words = nullptr;
    };

    static Addr pageNumber(Addr addr) { return addr >> pageShift; }

    static unsigned
    wordIndex(Addr addr)
    {
        return static_cast<unsigned>((addr & (pageBytes - 1)) >> 3);
    }

    const Page *
    findPage(Addr addr) const
    {
        auto it = pages_.find(pageNumber(addr));
        return it == pages_.end() ? nullptr : &it->second;
    }

    Page &
    getPage(Addr addr)
    {
        auto [it, inserted] = pages_.try_emplace(pageNumber(addr));
        if (inserted)
            it->second.assign(wordsPerPage, 0);
        return it->second;
    }

    std::uint64_t *
    cachedWords(Addr addr) const
    {
        const Addr pn = pageNumber(addr);
        const CacheSlot &slot = cache_[pn & (cacheSlots - 1)];
        if (slot.generation == generation_ && slot.pageNum == pn)
            return slot.words;
        return nullptr;
    }

    void
    cacheWords(Addr addr, const Page &page) const
    {
        const Addr pn = pageNumber(addr);
        CacheSlot &slot = cache_[pn & (cacheSlots - 1)];
        slot.pageNum = pn;
        slot.generation = generation_;
        slot.words = const_cast<std::uint64_t *>(page.data());
    }

    std::unordered_map<Addr, Page> pages_;
    mutable CacheSlot cache_[cacheSlots];
    std::uint64_t generation_ = 1;
};

} // namespace vca::mem

#endif // VCA_MEM_SPARSE_MEMORY_HH
