package lockguard

import "net"

// helperDial performs the blocking operation the callers in
// crossfile.go must not run under a lock.
func helperDial() {
	c, err := net.Dial("tcp", "collector:9618")
	if err == nil {
		c.Close()
	}
}

// helperIndirect blocks only through helperDial.
func helperIndirect() {
	helperDial()
}

// helperPure never blocks; calls to it under a lock stay silent.
func helperPure() int { return 42 }

// notifier is called through an interface. netNotifier, one of its
// implementations in this package, dials; quietNotifier does not.
type notifier interface{ notify() }

type netNotifier struct{}

func (netNotifier) notify() { helperDial() }

type quietNotifier struct{}

func (quietNotifier) notify() {}

// counter's only implementation never blocks.
type counter interface{ count() int }

type pureCounter struct{}

func (pureCounter) count() int { return helperPure() }

// helperNotify blocks only through the interface call.
func helperNotify(n notifier) { n.notify() }
