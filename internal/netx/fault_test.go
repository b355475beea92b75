package netx

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections on ln and echoes lines back.
func echoServer(t *testing.T, ln net.Listener) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if _, err := io.WriteString(conn, line); err != nil {
						return
					}
				}
			}()
		}
	}()
	return &wg
}

func TestFaultSequenceIsDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 99, Drop: 0.3, Reset: 0.2, Garble: 0.1}
	a, b := NewFaults(plan), NewFaults(plan)
	for i := 0; i < 1000; i++ {
		var sa, sb FaultStats
		ra := a.roll(plan.Drop, &sa.Drops)
		rb := b.roll(plan.Drop, &sb.Drops)
		if ra != rb {
			t.Fatalf("decision %d diverged: %v vs %v", i, ra, rb)
		}
	}
}

func TestFaultListenerDropsConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := NewFaults(FaultPlan{Seed: 5, Drop: 0.5})
	fln := faults.Listener(ln)
	wg := echoServer(t, fln)
	defer func() { ln.Close(); wg.Wait() }()

	const tries = 60
	survived := 0
	for i := 0; i < tries; i++ {
		// The listener closes a dropped connection straight after
		// accepting it, so the reset can beat the client's connect: a
		// dial error is a drop like any other, not a broken test.
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			continue
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		_, err = io.WriteString(conn, "ping\n")
		if err == nil {
			_, err = bufio.NewReader(conn).ReadString('\n')
		}
		if err == nil {
			survived++
		}
		conn.Close()
	}
	drops := faults.Stats().Drops
	if drops == 0 {
		t.Fatal("no connections dropped at 50% drop probability")
	}
	if survived == 0 {
		t.Fatal("every connection dropped at 50% drop probability")
	}
	if survived+drops != tries {
		t.Fatalf("survived %d + dropped %d != %d tries", survived, drops, tries)
	}
}

func TestFaultConnResetAndDelay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := echoServer(t, ln)
	defer func() { ln.Close(); wg.Wait() }()

	faults := NewFaults(FaultPlan{Seed: 11, Reset: 0.2, Delay: 0.3, DelayTime: time.Millisecond})
	resets := 0
	for i := 0; i < 40; i++ {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn := faults.Conn(raw)
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.WriteString(conn, "ping\n"); err != nil {
			resets++
			conn.Close()
			continue
		}
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			resets++
		}
		conn.Close()
	}
	st := faults.Stats()
	if st.Resets == 0 || resets == 0 {
		t.Fatalf("no resets observed: stats %+v, caller saw %d", st, resets)
	}
	if st.Delays == 0 {
		t.Fatalf("no delays injected: stats %+v", st)
	}
}

func TestFaultConnGarbleCorruptsData(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg := echoServer(t, ln)
	defer func() { ln.Close(); wg.Wait() }()

	faults := NewFaults(FaultPlan{Seed: 3, Garble: 1}) // corrupt every read
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := faults.Conn(raw)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	msg := "hello fault layer\n"
	if _, err := io.WriteString(conn, msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == msg {
		t.Fatal("read returned pristine data despite Garble=1")
	}
	if faults.Stats().Garbles == 0 {
		t.Fatal("garble counter not incremented")
	}
}

func TestFaultsDisabledPassThrough(t *testing.T) {
	faults := NewFaults(FaultPlan{Seed: 1, Drop: 1, Reset: 1, Garble: 1})
	faults.SetEnabled(false)
	var s FaultStats
	for i := 0; i < 100; i++ {
		if faults.roll(1, &s.Drops) {
			t.Fatal("disabled injector fired")
		}
	}
	if !strings.Contains(ErrInjectedReset.Error(), "reset") {
		t.Fatal("sanity: reset error text")
	}
}
