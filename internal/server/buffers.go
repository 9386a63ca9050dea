package server

import (
	"sync"

	"svwsim/internal/raceflag"
)

// bufPool recycles the warm path's large buffers: the concatenated body
// of a buffered sweep response (serveSweep) and the owner replies a
// forward reads (readReply). It holds *[]byte.
var bufPool sync.Pool

// maxPooledBuf caps the buffers bufPool keeps. A warm 60-cell sweep body
// is about 84 KB and each owner's reply to it about half that; a larger
// buffer is left to the garbage collector, so a rare huge sweep does not
// pin its memory in the pool.
const maxPooledBuf = 256 << 10

// getBuf returns an empty buffer with room for n bytes.
func getBuf(n int) *[]byte {
	if b, _ := bufPool.Get().(*[]byte); b != nil && cap(*b) >= n {
		*b = (*b)[:0]
		return b
	}
	b := make([]byte, 0, n)
	return &b
}

// putBuf hands b back to the pool. Nothing may read or write its bytes
// afterwards; under the race detector they are overwritten, so a body
// still aliasing a released buffer comes out garbled instead of usually
// intact.
func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	if raceflag.Enabled {
		full := (*b)[:cap(*b)]
		for i := range full {
			full[i] = '#'
		}
	}
	bufPool.Put(b)
}

// releaseReplies hands back the pooled owner replies resolve's forwarded
// cells alias. Call it once the response is written: the cells' bodies
// are garbage after it.
func releaseReplies(cells []cell) {
	for i := range cells {
		if c := &cells[i]; c.reply != nil {
			putBuf(c.reply)
			c.reply = nil
		}
	}
}
