package corpus

import (
	"fmt"
	"math/rand"
)

var pkgFirst = []string{
	"io", "com", "org", "net", "dev",
}

var pkgMid = []string{
	"acmesoft", "bluefin", "cryptoworks", "datakit", "everpay", "fastlane",
	"gridbase", "hexagon", "ironclad", "jetstream", "keystone", "lumina",
	"meshworks", "nimbus", "orbital", "polaris", "quantum", "redwood",
	"starling", "tidewater", "umbra", "vertex", "willow", "zephyr",
}

var pkgLast = []string{
	"security", "crypto", "auth", "core", "util", "keys", "vault",
}

func pkgName(rng *rand.Rand) string {
	return pick(rng, pkgFirst) + "." + pick(rng, pkgMid) + "." + pick(rng, pkgLast)
}

func projectName(rng *rand.Rand, idx int) string {
	return fmt.Sprintf("%s-%s-%03d", pick(rng, pkgMid), pick(rng, pkgLast), idx)
}

var classFirst = map[Archetype][]string{
	ArchEnc:    {"Aes", "Secure", "Crypto", "Payload", "Stream", "Message", "File"},
	ArchDigest: {"Password", "Checksum", "Content", "Integrity", "File", "Block"},
	ArchToken:  {"Token", "Session", "Nonce", "Otp", "Csrf", "ApiKey"},
	ArchPBE:    {"Password", "Passphrase", "Credential", "Login"},
	ArchKey:    {"Key", "Secret", "Credential", "Master"},
	ArchMixed:  {"Crypto", "Security", "Envelope", "Packet"},
}

var classSecond = map[Archetype][]string{
	ArchEnc:    {"Cipher", "Encryptor", "Codec", "Protector", "Sealer"},
	ArchDigest: {"Hasher", "Digester", "Fingerprint", "Verifier"},
	ArchToken:  {"Issuer", "Generator", "Factory", "Minter"},
	ArchPBE:    {"KeyDeriver", "Stretcher", "Kdf", "Hardener"},
	ArchKey:    {"Registry", "Store", "Loader", "Keeper"},
	ArchMixed:  {"Suite", "Toolkit", "Engine", "Facade"},
}

func className(rng *rand.Rand, arch Archetype) string {
	return pick(rng, classFirst[arch]) + pick(rng, classSecond[arch])
}

// identSet hands out distinct identifiers for one render, drawn
// deterministically from NameSeed.
type identSet struct {
	rng  *rand.Rand
	used map[string]bool
}

// pick returns an unused name from the pool, suffixing on exhaustion.
func (s *identSet) pick(pool []string) string {
	for attempt := 0; attempt < 8; attempt++ {
		n := pool[s.rng.Intn(len(pool))]
		if !s.used[n] {
			s.used[n] = true
			return n
		}
	}
	base := pool[s.rng.Intn(len(pool))]
	for i := 2; ; i++ {
		n := fmt.Sprintf("%s%d", base, i)
		if !s.used[n] {
			s.used[n] = true
			return n
		}
	}
}

var varCipher = []string{"enc", "cipher", "engine", "sealer", "box", "crypt", "worker"}
var varCipher2 = []string{"dec", "reverse", "opener", "unsealer", "decoder"}
var varKey = []string{"keySpec", "secretKey", "aesKey", "dataKey", "sessionKey"}
var varIV = []string{"ivSpec", "vector", "ivParam", "nonceSpec"}
var varBytes = []string{"raw", "material", "buf", "bytes", "payload", "blob"}
var varRandom = []string{"rnd", "random", "rng", "prng", "entropy"}
var varDigest = []string{"md", "digest", "hasher", "summer"}
var varMac = []string{"mac", "authTag", "hmac", "sealTag"}
var varMisc = []string{"tmp", "out", "holder", "scratch", "work"}

var methodInit = []string{"setup", "configure", "initialize", "prepare", "install"}
var methodWork = []string{"protect", "process", "transform", "run", "execute", "apply"}
var methodAux = []string{"refresh", "rotate", "renew", "derive", "compute"}
