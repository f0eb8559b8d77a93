//go:build !amd64

package checksum

func update(crc uint64, p []byte) uint64 { return updateStdlib(crc, p) }
