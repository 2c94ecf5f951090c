package server

import (
	"container/list"
	"context"
	"errors"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fpga"
)

// Content-addressed index cache. The paper's central performance argument is
// that index construction and transfer are a fixed overhead amortized over
// the read count; a service that rebuilds the BWT/SA and RRR wavelet tree
// for every job throws that amortization away. The cache keys built indexes
// by core.CacheKey (a hash of the reference bases, contig layout, and build
// parameters), serves repeats from an LRU, and deduplicates concurrent
// builds of the same key so a burst of jobs for one reference builds once.

// cacheEntry is one cached index plus the kernel programmed with it.
// The entry is created before its build starts; ready is closed when ix/err
// are final, so later arrivals wait on the in-flight build instead of
// starting their own (single-flight).
type cacheEntry struct {
	key       string
	ready     chan struct{}
	ix        *core.Index
	err       error
	buildTime time.Duration

	// kmu guards the lazily programmed farm; farmRuns counts mapping
	// runs so the simulated index transfer is charged only on the first.
	kmu      sync.Mutex
	farm     *fpga.Farm
	farmRuns int
}

// farmFor returns the farm programmed with the entry's index, programming
// the devices on first use. resident reports whether an earlier run already
// paid the index transfer into BRAM. Farms built here share the devices'
// breakers and the server's stats recorder, so health and counters are
// global across cached indexes.
func (e *cacheEntry) farmFor(devices []*fpga.Device, opts fpga.FarmOptions) (f *fpga.Farm, resident bool, err error) {
	e.kmu.Lock()
	defer e.kmu.Unlock()
	if e.farm == nil {
		farm, err := fpga.NewFarmOpts(devices, e.ix, opts)
		if err != nil {
			return nil, false, err
		}
		e.farm = farm
	}
	resident = e.farmRuns > 0
	e.farmRuns++
	return e.farm, resident, nil
}

// indexCache is a bounded LRU of cacheEntry values with single-flight builds,
// optionally backed by a disk spill directory of serialized indexes.
type indexCache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*list.Element // value: *cacheEntry
	order     *list.List               // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	diskHits  uint64

	// aliases maps a submission's alias key — RingKey: the SHA-256 of the raw
	// reference upload plus the build parameters — to the core.CacheKey of the
	// index those bytes parse to, so a repeat upload finds its index (here or
	// in the spill directory) without being parsed. Bounded by maxAliases.
	aliases map[string]string

	// dir, when set, is the spill directory: fresh builds are saved there
	// (atomic write + checksum trailer via core.SaveFile) and misses try a
	// LoadFile before rebuilding, so LRU-evicted or post-restart indexes come
	// back without paying construction again. A corrupt spill file fails its
	// checksum, is logged and removed, and the index is rebuilt from source.
	dir string
	log *slog.Logger
}

func newIndexCache(capacity int) *indexCache {
	if capacity < 1 {
		capacity = 1
	}
	return &indexCache{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		aliases:  map[string]string{},
	}
}

// maxAliases bounds the alias map. An alias costs ~200 bytes and stays useful
// after its entry leaves the LRU (the spill directory still holds the index),
// so the bound sits well above any cache capacity; a full map is emptied, not
// trimmed — forgetting an alias costs its next upload one parse, nothing else.
const maxAliases = 1024

// aliasKey returns the cache key recorded for alias, "" when there is none.
func (c *indexCache) aliasKey(alias string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliases[alias]
}

// setAlias records that the upload behind alias parses to the index key.
func (c *indexCache) setAlias(alias, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.aliases[alias]; !ok && len(c.aliases) >= maxAliases {
		clear(c.aliases)
	}
	c.aliases[alias] = key
}

// getOrBuild returns the entry for key, running build on a miss. Concurrent
// callers for the same key share one build; waiters abort when ctx is done.
// hit reports whether the entry pre-existed (including an in-flight build —
// the caller skipped construction either way). Failed builds are not cached.
//
// build receives the builder's context so index construction is cancellable.
// That makes one hazard possible: the caller driving the build gets canceled
// while healthy waiters share its entry. The failed entry is removed from the
// map before ready is closed, and waiters that see a context-shaped error
// while their own context is still live loop back to a fresh lookup — one of
// them becomes the new builder instead of inheriting a stranger's
// cancellation.
func (c *indexCache) getOrBuild(ctx context.Context, key string, build func(context.Context) (*core.Index, error)) (entry *cacheEntry, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			e := el.Value.(*cacheEntry)
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
			if e.err != nil {
				if isContextError(e.err) && ctx.Err() == nil {
					// The builder was canceled, not the index: retry under
					// our own live context.
					continue
				}
				return nil, true, e.err
			}
			return e, true, nil
		}
		c.misses++
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		el := c.order.PushFront(e)
		c.entries[key] = el
		c.evictOverflowLocked()
		c.mu.Unlock()

		start := time.Now()
		fromDisk := false
		if ix, ok := c.loadSpill(key); ok {
			e.ix, fromDisk = ix, true
			c.mu.Lock()
			c.diskHits++
			c.mu.Unlock()
		} else {
			e.ix, e.err = build(ctx)
		}
		e.buildTime = time.Since(start)
		if e.err != nil {
			// Drop the failed entry so a corrected retry rebuilds — before
			// ready is closed, so retrying waiters cannot re-find it. The
			// entry may already have been evicted by the LRU; only remove
			// our own.
			c.mu.Lock()
			if cur, ok := c.entries[key]; ok && cur == el {
				c.order.Remove(el)
				delete(c.entries, key)
			}
			c.mu.Unlock()
			close(e.ready)
			return nil, false, e.err
		}
		if !fromDisk {
			c.saveSpill(key, e.ix)
		}
		close(e.ready)
		// A disk-restored index counts as a hit: the caller skipped
		// construction, so build-stage figures should not include it.
		return e, fromDisk, nil
	}
}

// setSpill enables the disk tier rooted at dir.
func (c *indexCache) setSpill(dir string, log *slog.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dir = dir
	c.log = log
}

// loadSpill tries to restore key's index from the spill directory. A file
// that fails its integrity check (or any other read error) is removed so the
// fresh build can replace it — corruption degrades to a rebuild, never to a
// failed job.
func (c *indexCache) loadSpill(key string) (*core.Index, bool) {
	c.mu.Lock()
	dir, log := c.dir, c.log
	c.mu.Unlock()
	if dir == "" {
		return nil, false
	}
	path := filepath.Join(dir, key+".bwx")
	ix, err := core.LoadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			if log != nil {
				log.Warn("rejecting unreadable spilled index; rebuilding", "path", path, "err", err)
			}
			os.Remove(path)
		}
		return nil, false
	}
	return ix, true
}

// saveSpill persists a freshly built index to the spill directory,
// best-effort: a failed save costs a rebuild later, nothing else.
func (c *indexCache) saveSpill(key string, ix *core.Index) {
	c.mu.Lock()
	dir, log := c.dir, c.log
	c.mu.Unlock()
	if dir == "" || ix == nil {
		return
	}
	// CacheKey is hex SHA-256, so the key is filename-safe by construction.
	if err := ix.SaveFile(filepath.Join(dir, key+".bwx")); err != nil && log != nil {
		log.Warn("could not spill index to disk", "key", key, "err", err)
	}
}

// isContextError reports whether err is cancellation or timeout — the errors
// a canceled builder poisons its entry with.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// evictOverflowLocked drops least-recently-used entries past capacity.
// Evicted entries that are still building complete for their waiters (the
// entry carries its own data); they just stop being findable.
func (c *indexCache) evictOverflowLocked() {
	for len(c.entries) > c.capacity {
		el := c.order.Back()
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.evictions++
	}
}

// cacheStats is a point-in-time snapshot for /api/stats.
type cacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	DiskHits  uint64 `json:"disk_hits"`
	SizeBytes int    `json:"size_bytes"`
}

// ftabStats is the prefix-lookup-table block of /api/stats: the configured
// table order plus figures aggregated over every ready cached index — bytes
// resident and lookup outcomes (hit: the table answered, including stored
// dead ranges; miss: the query suffix held an out-of-alphabet symbol; short:
// the read was shorter than k).
type ftabStats struct {
	K         int    `json:"k"`
	SizeBytes int    `json:"size_bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Short     uint64 `json:"short"`
}

func (c *indexCache) ftabStats(configuredK int) ftabStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ftabStats{K: configuredK}
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		select {
		case <-e.ready:
			if e.ix == nil {
				continue
			}
			s.SizeBytes += e.ix.FtabBytes()
			fs := e.ix.FtabStats()
			s.Hits += fs.Hits
			s.Misses += fs.Misses
			s.Short += fs.Short
		default: // still building
		}
	}
	return s
}

func (c *indexCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := cacheStats{
		Entries:   len(c.entries),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		DiskHits:  c.diskHits,
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		select {
		case <-e.ready:
			// Charged now, not at build time: EnsureMem adds the
			// seed-and-extend state to an entry long after it was cached.
			if e.ix != nil {
				s.SizeBytes += e.ix.HostBytes()
			}
		default: // still building; size unknown
		}
	}
	return s
}
