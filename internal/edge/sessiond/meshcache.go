package sessiond

import (
	"container/list"
	"errors"
	"fmt"
	"math"

	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
)

// meshKey identifies one decimated variant, quantized to 2% ratio steps so
// nearby ratios share one cached mesh.
type meshKey struct {
	object    string
	ratioStep int
}

func meshKeyFor(object string, ratio float64) meshKey {
	return meshKey{object: object, ratioStep: int(math.Round(ratio * 50))}
}

// meshCache is a session's private decimation LRU — the "mesh-cache handle"
// each session carries. It holds each variant as its encoded wire payload
// (wire.AppendMesh), so a hit is served verbatim with no encode. Evicting
// the session releases the whole cache at once. Not safe for concurrent use
// on its own; the owning session's mutex guards it.
type meshCache struct {
	cap     int
	entries map[meshKey]*list.Element
	lru     *list.List
	hits    int
	misses  int
}

type meshEntry struct {
	key     meshKey
	payload []byte // encoded mesh
}

func newMeshCache(capacity int) *meshCache {
	return &meshCache{cap: capacity, entries: make(map[meshKey]*list.Element), lru: list.New()}
}

// get returns the cached payload for key, or nil. The returned bytes are
// shared with every later hit and must not be mutated.
func (c *meshCache) get(key meshKey) []byte {
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*meshEntry).payload
	}
	c.misses++
	return nil
}

// put inserts the encoded mesh for a key that get just missed, evicting the
// LRU entry beyond capacity. The session mutex, held from that get through
// this put, keeps the key absent in between.
func (c *meshCache) put(key meshKey, payload []byte) {
	c.entries[key] = c.lru.PushFront(&meshEntry{key: key, payload: payload})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*meshEntry).key)
	}
}

// errMeshEncode marks a decimator output the mesh payload cannot carry (an
// invalid mesh): a server fault, unlike an unknown object.
var errMeshEncode = errors.New("sessiond: decimator returned an unencodable mesh")

// decimate serves a decimated mesh's wire payload through the session's
// cache. A miss decimates through the shared Decimator and encodes once
// into an exactly sized buffer; a hit returns the cached bytes untouched.
func (sess *session) decimate(dec Decimator, object string, ratio float64) ([]byte, bool, error) {
	key := meshKeyFor(object, ratio)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if p := sess.meshes.get(key); p != nil {
		return p, true, nil
	}
	m, err := dec.Decimate(object, ratio, false)
	if err != nil {
		return nil, false, err
	}
	p, err := wire.AppendMesh(make([]byte, 0, wire.MeshSize(m)), m)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", errMeshEncode, err)
	}
	sess.meshes.put(key, p)
	return p, false, nil
}
