package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMuxDeadlineValueExpiresCall: a call to a peer that never answers
// returns context.DeadlineExceeded shortly after its deadline even though
// the caller's context carries none — the connection's reaper enforces the
// value — and the connection stays usable.
func TestMuxDeadlineValueExpiresCall(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := startServer(t, 8, func(typ byte, payload []byte) (byte, Marshaler, error) {
		if bytes.Equal(payload, []byte("hang")) {
			<-block
		}
		return typ, blob(append([]byte(nil), payload...)), nil
	})
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const wait = 100 * time.Millisecond
	start := time.Now()
	err = m.Call(context.Background(), start.Add(wait), 1, blob("hang"), func(byte, []byte) error { return nil })
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if IsNotSent(err) {
		t.Fatal("the request was written; the expiry must not be reported as not-sent")
	}
	if elapsed < wait || elapsed > wait+50*time.Millisecond {
		t.Fatalf("call returned after %v, want within [%v, %v]", elapsed, wait, wait+50*time.Millisecond)
	}
	if err := m.Call(context.Background(), time.Now().Add(time.Second), 1, blob("ok"), func(byte, []byte) error { return nil }); err != nil {
		t.Fatalf("call after the expired one: %v", err)
	}
}

// TestMuxReaperRearmsEarlier: a deadline earlier than the one the reaper is
// armed for re-arms it, so a short call is not held to a long neighbour's
// deadline; an already-passed deadline never touches the wire.
func TestMuxReaperRearmsEarlier(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := startServer(t, 8, func(typ byte, payload []byte) (byte, Marshaler, error) {
		<-block
		return typ, blob(nil), nil
	})
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	long := make(chan error, 1)
	go func() {
		long <- m.Call(context.Background(), time.Now().Add(10*time.Second), 1, blob("long"), func(byte, []byte) error { return nil })
	}()
	time.Sleep(20 * time.Millisecond) // let the long call arm the reaper
	start := time.Now()
	err = m.Call(context.Background(), start.Add(50*time.Millisecond), 1, blob("short"), func(byte, []byte) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("short call: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("short call returned after %v; the reaper kept the long deadline", elapsed)
	}
	err = m.Call(context.Background(), time.Now().Add(-time.Millisecond), 1, blob("late"), func(byte, []byte) error { return nil })
	if !IsNotSent(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past deadline: err = %v, want a not-sent deadline error", err)
	}
	select {
	case err := <-long:
		t.Fatalf("long call finished early: %v", err)
	default:
	}
	m.Close()
	var ce *ClosedError
	if err := <-long; !errors.As(err, &ce) {
		t.Fatalf("long call after Close: err = %v, want ClosedError", err)
	}
}

// TestMuxConcurrentDeadlines: many goroutines pipeline calls with mixed
// deadlines over one connection; calls the peer answers in time get their
// own response, calls it sits on expire, and the reaper re-arms across all
// of them. Run under -race, it exercises the waiter map shared by callers,
// the reader and the reaper.
func TestMuxConcurrentDeadlines(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	addr := startServer(t, 64, func(typ byte, payload []byte) (byte, Marshaler, error) {
		if bytes.HasPrefix(payload, []byte("slow")) {
			<-stop
		}
		return typ, blob(append([]byte(nil), payload...)), nil
	})
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				slow := (g+i)%4 == 0
				want := fmt.Sprintf("fast-%d-%d", g, i)
				deadline := time.Now().Add(time.Second)
				if slow {
					want = fmt.Sprintf("slow-%d-%d", g, i)
					deadline = time.Now().Add(time.Duration(5+i%3*5) * time.Millisecond)
				}
				var got string
				err := m.Call(context.Background(), deadline, 1, blob(want), func(_ byte, payload []byte) error {
					got = string(payload)
					return nil
				})
				switch {
				case slow && !errors.Is(err, context.DeadlineExceeded):
					t.Errorf("%s: err = %v, want context.DeadlineExceeded", want, err)
				case !slow && (err != nil || got != want):
					t.Errorf("%s: got %q, %v", want, got, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMuxBlockedWriteCutAtDeadline: a request whose bytes cannot be written
// (the peer stopped reading) is cut off at its deadline by closing the
// connection — a partial frame makes the stream unusable.
func TestMuxBlockedWriteCutAtDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go io.ReadFull(server, make([]byte, len(Magic))) // read the preamble, then nothing
	m, err := NewMux(client)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	err = m.Call(context.Background(), start.Add(50*time.Millisecond), 1, blob("stuck"), func(byte, []byte) error { return nil })
	if err == nil || IsNotSent(err) {
		t.Fatalf("err = %v, want a write failure", err)
	}
	if !errors.Is(err, errWriteExpired) {
		t.Fatalf("err = %v, want the blocked-write cause", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("blocked write returned after %v", elapsed)
	}
	var ce *ClosedError
	if err := m.Call(context.Background(), time.Time{}, 1, blob("after"), func(byte, []byte) error { return nil }); !errors.As(err, &ce) {
		t.Fatalf("call on the cut connection: err = %v, want ClosedError", err)
	}
}

// serveOnPipe runs ServeConn over one end of an in-memory pipe and returns
// a mux on the other end plus a channel closed when ServeConn returns.
func serveOnPipe(t *testing.T, maxInflight int, h Handler) (*Mux, <-chan struct{}) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		var magic [len(Magic)]byte
		if _, err := io.ReadFull(server, magic[:]); err != nil {
			return
		}
		ServeConn(server, server, maxInflight, h)
	}()
	m, err := NewMux(client)
	if err != nil {
		t.Fatal(err)
	}
	return m, done
}

// TestServeConnHandlersExitOnClose: the session's handler goroutines live
// as long as the connection and all exit when it closes — the goroutine
// count returns to its baseline.
func TestServeConnHandlersExitOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	const concurrent = 6
	var running atomic.Int32
	release := make(chan struct{})
	m, done := serveOnPipe(t, 16, func(typ byte, payload []byte) (byte, Marshaler, error) {
		running.Add(1)
		<-release
		return typ, blob(nil), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Call(context.Background(), time.Time{}, 1, blob("x"), func(byte, []byte) error { return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, func() bool { return running.Load() == concurrent })
	close(release)
	wg.Wait()
	// The handlers stay parked for the next frames.
	if n := runtime.NumGoroutine(); n < base+concurrent {
		t.Fatalf("goroutines = %d, want >= %d parked handlers over baseline %d", n, concurrent, base)
	}
	m.Close()
	<-done
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
}

// TestServeConnNoDispatchBeyondBound: with every one of the maxInflight
// handlers blocked, no further frame is dispatched; the queued requests run
// once handlers free up.
func TestServeConnNoDispatchBeyondBound(t *testing.T) {
	const bound, total = 3, 10
	var dispatched atomic.Int32
	release := make(chan struct{})
	m, done := serveOnPipe(t, bound, func(typ byte, payload []byte) (byte, Marshaler, error) {
		dispatched.Add(1)
		<-release
		return typ, blob(nil), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Call(context.Background(), time.Time{}, 1, blob("x"), func(byte, []byte) error { return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, func() bool { return dispatched.Load() == bound })
	time.Sleep(50 * time.Millisecond)
	if got := dispatched.Load(); got != bound {
		t.Fatalf("dispatched %d requests with all %d handlers blocked", got, bound)
	}
	close(release)
	wg.Wait()
	if got := dispatched.Load(); got != total {
		t.Fatalf("dispatched %d of %d requests", got, total)
	}
	m.Close()
	<-done
}

// TestServeConnReusesHandler: back-to-back requests on a session run on the
// same handler goroutine instead of a fresh one per frame.
func TestServeConnReusesHandler(t *testing.T) {
	var mu sync.Mutex
	ids := map[string]bool{}
	m, done := serveOnPipe(t, 8, func(typ byte, payload []byte) (byte, Marshaler, error) {
		mu.Lock()
		ids[goroutineID()] = true
		mu.Unlock()
		return typ, blob(nil), nil
	})
	for i := 0; i < 50; i++ {
		if err := m.Call(context.Background(), time.Time{}, 1, blob("x"), func(byte, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	<-done
	// A handler that has just written its response may not be back in its
	// receive when the next frame arrives, so a second one can be spawned;
	// never one per frame.
	if len(ids) > 2 {
		t.Fatalf("50 sequential requests ran on %d goroutines", len(ids))
	}
}

// goroutineID returns the calling goroutine's ID from its stack header.
func goroutineID() string {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _, _ := strings.Cut(s, " ")
	if _, err := strconv.Atoi(id); err != nil {
		panic("unexpected stack header " + s)
	}
	return id
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// BenchmarkMuxCall is one loopback round trip through a Mux and ServeConn
// carrying a 5s deadline, the worker-call shape of the distributed path.
func BenchmarkMuxCall(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var magic [len(Magic)]byte
		if _, err := io.ReadFull(c, magic[:]); err != nil {
			return
		}
		ServeConn(c, c, 64, echoHandler)
	}()
	m, err := DialMux(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	req := blob("0123456789abcdef0123456789abcdef")
	dec := func(byte, []byte) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Call(context.Background(), time.Now().Add(5*time.Second), 1, req, dec); err != nil {
			b.Fatal(err)
		}
	}
}
