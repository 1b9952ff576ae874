package obs

import (
	"io"
	"sync"
)

// asyncWriter decouples event production from I/O: producers encode into
// recycled buffers and enqueue them on a bounded ring; one background
// goroutine drains the ring to the underlying writer. When the ring is
// full, producers block (backpressure) — traces are complete by
// construction, never sampled.
type asyncWriter struct {
	lines chan []byte
	free  chan []byte
	done  chan struct{}

	mu  sync.Mutex
	w   io.Writer
	err error
}

// newAsyncWriter starts the drain goroutine with a ring of the given number
// of line buffers.
func newAsyncWriter(w io.Writer, ring int) *asyncWriter {
	aw := &asyncWriter{
		lines: make(chan []byte, ring),
		free:  make(chan []byte, ring),
		done:  make(chan struct{}),
		w:     w,
	}
	go aw.drain()
	return aw
}

// drain is the writer goroutine body.
func (aw *asyncWriter) drain() {
	defer close(aw.done)
	for line := range aw.lines {
		aw.mu.Lock()
		if aw.err == nil {
			_, aw.err = aw.w.Write(line)
		}
		aw.mu.Unlock()
		// Recycle the buffer if the free list has room; otherwise let it
		// be collected.
		select {
		case aw.free <- line[:0]:
		default:
		}
	}
}

// get returns an empty line buffer, recycled when available.
func (aw *asyncWriter) get() []byte {
	select {
	case buf := <-aw.free:
		return buf
	default:
		return make([]byte, 0, 256)
	}
}

// put enqueues one encoded line; it blocks while the ring is full.
func (aw *asyncWriter) put(line []byte) { aw.lines <- line }

// close flushes the ring, stops the goroutine, and returns the first write
// error.
func (aw *asyncWriter) close() error {
	close(aw.lines)
	<-aw.done
	aw.mu.Lock()
	defer aw.mu.Unlock()
	return aw.err
}
