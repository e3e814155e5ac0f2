package comm

import (
	"bufio"
	"fmt"
	"io"
	"testing"
)

// BenchmarkFrameCodec measures the codec alone: encode one message into
// a buffered writer and decode it back, at several payload sizes.
func BenchmarkFrameCodec(b *testing.B) {
	for _, size := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("payload_%d", size), func(b *testing.B) {
			m := Message{Src: 3, Tag: 1 << 20, Payload: make([]byte, size)}
			pr, pw := io.Pipe()
			defer pr.Close()
			bw := bufio.NewWriterSize(pw, tcpBufSize)
			br := bufio.NewReaderSize(pr, tcpBufSize)
			go func() {
				for i := 0; i < b.N; i++ {
					if err := writeFrame(bw, m); err != nil {
						return
					}
					if err := bw.Flush(); err != nil {
						return
					}
				}
				pw.Close()
			}()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := readFrame(br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTCPPingPong round-trips one message between two PEs over
// real sockets — the end-to-end latency of the framed transport.
func BenchmarkTCPPingPong(b *testing.B) {
	n, err := NewTCPNetwork(2)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	payload := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep := n.Endpoint(1)
		for i := 0; i < b.N; i++ {
			got, err := ep.Recv(0, 1)
			if err != nil {
				return
			}
			if err := ep.Send(0, 2, got); err != nil {
				return
			}
		}
	}()
	ep := n.Endpoint(0)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := ep.Recv(1, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	<-done
}
