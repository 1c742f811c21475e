package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Session multiplexing: a long-lived collector daemon serves many producer
// processes at once, so a stream must say who it belongs to before events
// flow. The hello frame is a versioned identity record sent immediately after
// the stream magic: tenant (the isolation and quota domain), process (one OS
// process of the tenant's fleet) and run (one execution of that process).
// Streams without a hello — every producer built before this frame existed —
// land in the DefaultTenant, so old producers keep working against a
// multiplexing daemon and new producers keep working against an old
// single-run collector (which records the hello on the connection and
// otherwise ignores it).

// frameHello carries the stream's tenant/process/run identity.
const frameHello = byte(0x03)

// helloProtoVersion is the hello frame's own version, independent of the wire
// format version. Readers accept any version they can parse; unknown trailing
// fields of future versions would ride behind the strings (none exist yet).
const helloProtoVersion = 1

// maxHelloString bounds each identity string on the read side: identity is
// operator-chosen metadata, and a corrupt length must not provoke a giant
// allocation or an unprintable tenant key.
const maxHelloString = 256

// DefaultTenant is the tenant of streams that never sent a hello.
const DefaultTenant = "default"

// Hello is a producer stream's identity.
type Hello struct {
	Tenant  string // quota and isolation domain, e.g. "checkout-service"
	Process string // one process of the fleet, e.g. "host-17:4242"
	Run     string // one execution, e.g. a start timestamp or build id
}

// Key returns the tenant key the collector isolates on; empty maps to
// DefaultTenant.
func (h Hello) Key() string {
	if h.Tenant == "" {
		return DefaultTenant
	}
	return h.Tenant
}

func (h Hello) String() string {
	return fmt.Sprintf("%s/%s/%s", h.Key(), h.Process, h.Run)
}

// WriteHello emits the identity frame. Producers send it first, immediately
// after the magic, so the collector can bind the connection to its tenant
// before any event arrives.
func (sw *StreamWriter) WriteHello(h Hello) error {
	if err := sw.w.WriteByte(frameHello); err != nil {
		return err
	}
	var v [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(v[:], uint64(helloProtoVersion))
	if _, err := sw.w.Write(v[:k]); err != nil {
		return err
	}
	for _, s := range []string{h.Tenant, h.Process, h.Run} {
		if len(s) > maxHelloString {
			s = s[:maxHelloString]
		}
		if err := sw.writeString(s); err != nil {
			return err
		}
	}
	return nil
}

// SendHello writes the identity frame and flushes it eagerly, so the daemon
// binds the connection to its tenant before the first event batch arrives.
// Call it once, right after the recorder is created.
func (s *SocketRecorder) SendHello(h Hello) error {
	s.mu.Lock()
	s.wmu.Lock()
	defer s.mu.Unlock()
	defer s.wmu.Unlock()
	if err := s.stickyErr(); err != nil {
		return err
	}
	if s.conn == nil {
		return errors.New("trace: socket recorder closed")
	}
	if err := s.sw.WriteHello(h); err != nil {
		s.fail(err)
		return err
	}
	if err := s.sw.Flush(); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// DialCollectorHello dials a collector and introduces the stream with its
// tenant/process/run identity — the producer entry point for daemon-mode
// collection.
func DialCollectorHello(network, addr string, h Hello) (*SocketRecorder, error) {
	s, err := DialCollector(network, addr)
	if err != nil {
		return nil, err
	}
	if err := s.SendHello(h); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// readHello decodes one hello frame body (the kind byte is consumed).
func (sr *StreamReader) readHello() (Hello, error) {
	v, err := sr.readUvarint()
	if err != nil {
		return Hello{}, fmt.Errorf("trace: reading hello version: %w", err)
	}
	if v == 0 || v > 64 {
		return Hello{}, fmt.Errorf("%w: hello version %d out of range", ErrBadStream, v)
	}
	var h Hello
	fields := []*string{&h.Tenant, &h.Process, &h.Run}
	for _, f := range fields {
		s, err := sr.readString()
		if err != nil {
			return Hello{}, fmt.Errorf("trace: reading hello identity: %w", err)
		}
		if len(s) > maxHelloString {
			return Hello{}, fmt.Errorf("%w: hello identity of %d bytes exceeds max %d",
				ErrBadStream, len(s), maxHelloString)
		}
		*f = s
	}
	return h, nil
}
