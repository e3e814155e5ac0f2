package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/hashing"
)

// The rendezvous service bootstraps a multi-process run: every rank
// binds its own listener, dials the (well-known) rendezvous address,
// registers (rank, listen address), and blocks until the service has
// heard from all p ranks and broadcast the complete address book back.
// Only then does anyone dial a peer, so the topology pre-open never
// races a listener that is not up yet.
//
// Frames are checksummed with a chained Mix64 over the frame bytes
// under a domain constant, so a corrupted or alien byte stream is
// rejected instead of misparsed — the bootstrap path gets the same
// integrity discipline as the checked collectives it sets up.
//
// Wire format, little-endian:
//
//	u32 magic "RDZ1" | u8 kind | u32 payloadLen | payload | u64 checksum
//
//	kind 1 REGISTER: u32 rank | u32 p | u16 addrLen | addr
//	kind 2 BOOK:     u32 p | p × (u16 addrLen | addr)
//	kind 3 ERROR:    message bytes
const (
	rdvMagic        = 0x52445A31 // "RDZ1"
	rdvKindRegister = 1
	rdvKindBook     = 2
	rdvKindError    = 3
	// rdvChecksumDomain keys the frame checksum chain.
	rdvChecksumDomain = 0x72656e64657a7673 // "rendezvs"
	// rdvMaxFrame bounds a frame so a corrupted length cannot make the
	// reader allocate gigabytes: p addresses of ≤ 256 bytes each plus
	// headers fit easily for any supported p.
	rdvMaxFrame = 1 << 22
)

// rdvChecksum chains Mix64 over the frame's kind and payload.
func rdvChecksum(kind byte, payload []byte) uint64 {
	h := hashing.Mix64(rdvChecksumDomain ^ uint64(kind))
	var block [8]byte
	for i := 0; i < len(payload); i += 8 {
		copy(block[:], payload[i:min(i+8, len(payload))])
		h = hashing.Mix64(h ^ binary.LittleEndian.Uint64(block[:]))
		block = [8]byte{}
	}
	return hashing.Mix64(h ^ uint64(len(payload)))
}

func writeRdvFrame(conn net.Conn, kind byte, payload []byte, deadline time.Time) error {
	if err := conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	buf := make([]byte, 0, 9+len(payload)+8)
	buf = binary.LittleEndian.AppendUint32(buf, rdvMagic)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint64(buf, rdvChecksum(kind, payload))
	_, err := conn.Write(buf)
	return err
}

func readRdvFrame(conn net.Conn, deadline time.Time) (byte, []byte, error) {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	var hdr [9]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != rdvMagic {
		return 0, nil, fmt.Errorf("dist: rendezvous frame has bad magic")
	}
	kind := hdr[4]
	n := binary.LittleEndian.Uint32(hdr[5:])
	if n > rdvMaxFrame {
		return 0, nil, fmt.Errorf("dist: rendezvous frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return 0, nil, err
	}
	var sum [8]byte
	if _, err := io.ReadFull(conn, sum[:]); err != nil {
		return 0, nil, err
	}
	if got, want := binary.LittleEndian.Uint64(sum[:]), rdvChecksum(kind, payload); got != want {
		return 0, nil, fmt.Errorf("dist: rendezvous frame checksum mismatch (%#x != %#x)", got, want)
	}
	if kind == rdvKindError {
		return 0, nil, fmt.Errorf("dist: rendezvous rejected registration: %s", payload)
	}
	return kind, payload, nil
}

func encodeRegister(rank, p int, addr string) []byte {
	buf := make([]byte, 0, 10+len(addr))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(addr)))
	return append(buf, addr...)
}

func decodeRegister(payload []byte) (rank, p int, addr string, err error) {
	if len(payload) < 10 {
		return 0, 0, "", fmt.Errorf("dist: truncated REGISTER frame")
	}
	rank = int(binary.LittleEndian.Uint32(payload[0:]))
	p = int(binary.LittleEndian.Uint32(payload[4:]))
	n := int(binary.LittleEndian.Uint16(payload[8:]))
	if len(payload) != 10+n {
		return 0, 0, "", fmt.Errorf("dist: REGISTER frame length mismatch")
	}
	return rank, p, string(payload[10:]), nil
}

func encodeBook(addrs []string) []byte {
	size := 4
	for _, a := range addrs {
		size += 2 + len(a)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(addrs)))
	for _, a := range addrs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func decodeBook(payload []byte) ([]string, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("dist: truncated BOOK frame")
	}
	p := int(binary.LittleEndian.Uint32(payload))
	pos := 4
	// The count is the sender's claim: size the book by what the payload
	// can hold, at least 2 bytes an entry, not by p.
	addrs := make([]string, 0, min(p, (len(payload)-4)/2))
	for i := 0; i < p; i++ {
		if pos+2 > len(payload) {
			return nil, fmt.Errorf("dist: truncated BOOK entry %d", i)
		}
		n := int(binary.LittleEndian.Uint16(payload[pos:]))
		pos += 2
		if pos+n > len(payload) {
			return nil, fmt.Errorf("dist: truncated BOOK address %d", i)
		}
		addrs = append(addrs, string(payload[pos:pos+n]))
		pos += n
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("dist: BOOK frame has %d trailing bytes", len(payload)-pos)
	}
	return addrs, nil
}

// ServeRendezvous collects one registration per rank on l, then sends
// every registrant the complete address book and returns it. It runs
// the service to completion (or failure) and always closes l.
//
// Failure attribution is explicit: a duplicate rank registration, a
// rank out of range, or a world-size mismatch aborts the rendezvous
// with an error naming the offender (the offending client is told,
// too), and hitting timeout before all p ranks have registered reports
// exactly which ranks are missing.
func ServeRendezvous(l net.Listener, p int, timeout time.Duration) ([]string, error) {
	defer l.Close()
	if p < 1 {
		return nil, fmt.Errorf("dist: rendezvous requires p >= 1, got %d", p)
	}
	if timeout <= 0 {
		timeout = comm.DefaultSetupTimeout
	}
	deadline := time.Now().Add(timeout)
	var timedOut atomic.Bool
	timer := time.AfterFunc(timeout, func() {
		timedOut.Store(true)
		l.Close()
	})
	defer timer.Stop()

	addrs := make([]string, p)
	conns := make([]net.Conn, p)
	registered := 0
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	fail := func(conn net.Conn, format string, args ...any) ([]string, error) {
		err := fmt.Errorf(format, args...)
		if conn != nil {
			_ = writeRdvFrame(conn, rdvKindError, []byte(err.Error()), time.Now().Add(time.Second))
			conn.Close()
		}
		return nil, err
	}
	for registered < p {
		conn, err := l.Accept()
		if err != nil {
			if timedOut.Load() {
				var missing []int
				for r, c := range conns {
					if c == nil {
						missing = append(missing, r)
					}
				}
				sort.Ints(missing)
				return nil, fmt.Errorf("dist: rendezvous timed out after %v with %d/%d ranks registered; missing ranks %v", timeout, registered, p, missing)
			}
			return nil, fmt.Errorf("dist: rendezvous accept: %w", err)
		}
		kind, payload, err := readRdvFrame(conn, deadline)
		if err != nil {
			// A garbled or alien connection (port scanner, stale client)
			// is dropped without burning the rendezvous; the rank it
			// claimed to be — if any — can still register properly.
			conn.Close()
			continue
		}
		if kind != rdvKindRegister {
			conn.Close()
			continue
		}
		rank, clientP, addr, err := decodeRegister(payload)
		if err != nil {
			conn.Close()
			continue
		}
		if rank < 0 || rank >= p {
			return fail(conn, "dist: rendezvous: rank %d out of range [0, %d)", rank, p)
		}
		if clientP != p {
			return fail(conn, "dist: rendezvous: rank %d expects world size %d, service expects %d", rank, clientP, p)
		}
		if conns[rank] != nil {
			return fail(conn, "dist: rendezvous: duplicate registration for rank %d (%s and %s)", rank, addrs[rank], addr)
		}
		addrs[rank] = addr
		conns[rank] = conn
		registered++
	}
	book := encodeBook(addrs)
	for r, conn := range conns {
		if err := writeRdvFrame(conn, rdvKindBook, book, deadline); err != nil {
			return nil, fmt.Errorf("dist: rendezvous: sending address book to rank %d: %w", r, err)
		}
	}
	return append([]string(nil), addrs...), nil
}

// Register announces this rank's listen address to the rendezvous
// service at addr and blocks until the complete address book arrives.
// The returned book has exactly p entries and entry rank == selfAddr.
// Ranks start in any order, so a rendezvous that is not listening yet
// (connection refused) is retried with backoff until timeout — only
// the service's own deadline decides who was truly missing.
func Register(addr string, rank, p int, selfAddr string, timeout time.Duration) ([]string, error) {
	if timeout <= 0 {
		timeout = comm.DefaultSetupTimeout
	}
	deadline := time.Now().Add(timeout)
	var conn net.Conn
	var err error
	for backoff := 20 * time.Millisecond; ; backoff = min(backoff*2, 500*time.Millisecond) {
		conn, err = net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			break
		}
		if remaining := time.Until(deadline); remaining <= backoff {
			return nil, fmt.Errorf("dist: rank %d dialing rendezvous %s: %w", rank, addr, err)
		}
		time.Sleep(backoff)
	}
	defer conn.Close()
	if err := writeRdvFrame(conn, rdvKindRegister, encodeRegister(rank, p, selfAddr), deadline); err != nil {
		return nil, fmt.Errorf("dist: rank %d registering with rendezvous: %w", rank, err)
	}
	kind, payload, err := readRdvFrame(conn, deadline)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d awaiting address book: %w", rank, err)
	}
	if kind != rdvKindBook {
		return nil, fmt.Errorf("dist: rank %d: unexpected rendezvous frame kind %d", rank, kind)
	}
	book, err := decodeBook(payload)
	if err != nil {
		return nil, err
	}
	if len(book) != p {
		return nil, fmt.Errorf("dist: rank %d: address book has %d entries, want %d", rank, len(book), p)
	}
	if book[rank] != selfAddr {
		return nil, fmt.Errorf("dist: rank %d: address book entry %q is not this rank's address %q", rank, book[rank], selfAddr)
	}
	return book, nil
}
