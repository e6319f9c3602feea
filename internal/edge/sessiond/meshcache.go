package sessiond

import (
	"container/list"
	"math"

	"github.com/mar-hbo/hbo/internal/mesh"
)

// meshKey identifies one decimated variant, quantized to 2% ratio steps so
// nearby ratios share one cached mesh.
type meshKey struct {
	object    string
	ratioStep int
	fast      bool
}

func meshKeyFor(object string, ratio float64, fast bool) meshKey {
	return meshKey{object: object, ratioStep: int(math.Round(ratio * 50)), fast: fast}
}

// meshCache is a session's private decimation LRU — the "mesh-cache handle"
// each session carries. Evicting the session releases the whole cache at
// once. Not safe for concurrent use on its own; the owning session's mutex
// guards it.
type meshCache struct {
	cap     int
	entries map[meshKey]*list.Element
	lru     *list.List
	hits    int
	misses  int
}

type meshEntry struct {
	key meshKey
	m   *mesh.Mesh
}

func newMeshCache(capacity int) *meshCache {
	return &meshCache{cap: capacity, entries: make(map[meshKey]*list.Element), lru: list.New()}
}

// get returns the cached mesh for key, or nil. A manifest placeholder
// (entry present, mesh nil) counts as a miss: the variant's identity
// survived a snapshot but its geometry did not, so it must be re-decimated.
func (c *meshCache) get(key meshKey) *mesh.Mesh {
	if el, ok := c.entries[key]; ok {
		if m := el.Value.(*meshEntry).m; m != nil {
			c.hits++
			c.lru.MoveToFront(el)
			return m
		}
	}
	c.misses++
	return nil
}

// put inserts a mesh, evicting the LRU entry beyond capacity.
func (c *meshCache) put(key meshKey, m *mesh.Mesh) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*meshEntry).m = m
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&meshEntry{key: key, m: m})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*meshEntry).key)
	}
}

// manifest lists the cached variant identities oldest-first — the order
// restoreManifest replays them to reproduce the LRU ordering exactly.
func (c *meshCache) manifest() []meshKey {
	keys := make([]meshKey, 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		keys = append(keys, el.Value.(*meshEntry).key)
	}
	return keys
}

// restoreManifest installs placeholder entries (identity without geometry)
// for a snapshot's manifest, preserving LRU order. Meshes are deliberately
// not persisted — they are pure functions of (object, ratio, fast) and far
// larger than the rest of the snapshot — so a restored session re-decimates
// on first touch and the placeholder keeps its LRU slot honest meanwhile.
func (c *meshCache) restoreManifest(keys []meshKey) {
	for _, k := range keys {
		if _, ok := c.entries[k]; ok {
			continue
		}
		c.entries[k] = c.lru.PushFront(&meshEntry{key: k})
		for c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*meshEntry).key)
		}
	}
}

// decimate serves a decimated mesh through the session's cache, falling
// back to the shared Decimator on a miss.
func (sess *session) decimate(dec Decimator, object string, ratio float64, fast bool) (*mesh.Mesh, bool, error) {
	key := meshKeyFor(object, ratio, fast)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if m := sess.meshes.get(key); m != nil {
		return m, true, nil
	}
	m, err := dec.Decimate(object, ratio, fast)
	if err != nil {
		return nil, false, err
	}
	sess.meshes.put(key, m)
	return m, false, nil
}
