// Quickstart: the paper's Figure 2 running example, end to end.
//
// We take the old and new version of AESCipher.java (a developer switching
// AES from implicit ECB mode to CBC with an initialization vector), show
// the textual patch, the usage DAGs the abstraction builds for the enc
// object, the derived usage change (F−, F+), and the security rule that
// can be auto-suggested from it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	diffcode "repro"
)

const oldVersion = `
class AESCipher {
    Cipher enc, dec;
    final String algorithm = "AES";

    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
            dec = Cipher.getInstance(algorithm);
            dec.init(Cipher.DECRYPT_MODE, key);
        } catch (Exception e) {}
    }
}
`

const newVersion = `
class AESCipher {
    Cipher enc, dec;
    final String algorithm = "AES/CBC/PKCS5Padding";

    protected void setKeyAndIV(Secret key, String iv) {
        try {
            byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
            IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
            dec = Cipher.getInstance(algorithm);
            dec.init(Cipher.DECRYPT_MODE, key, ivSpec);
        } catch (Exception e) {}
    }
}
`

func main() {
	fmt.Println("=== The code change (paper Figure 2a) ===")
	fmt.Println(diffcode.UnifiedDiff(oldVersion, newVersion, 1))

	opts := diffcode.Options{}

	fmt.Println("=== Usage DAG paths of the first Cipher object, old version (Figure 2b) ===")
	oldGs, err := diffcode.BuildDAGs(oldVersion, diffcode.Cipher, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range oldGs[:1] {
		for _, p := range g.Paths() {
			fmt.Println("  " + p.String())
		}
	}
	fmt.Println()
	fmt.Println("=== Usage DAG paths, new version (Figure 2c) ===")
	newGs, err := diffcode.BuildDAGs(newVersion, diffcode.Cipher, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range newGs[:1] {
		for _, p := range g.Paths() {
			fmt.Println("  " + p.String())
		}
	}

	fmt.Println()
	fmt.Println("=== Usage changes after pairing and diffing (Figure 2d) ===")
	changes := diffcode.DiffSources(oldVersion, newVersion, diffcode.Cipher, opts)
	kept, stats := diffcode.Filter(changes)
	fmt.Printf("%d raw usage changes, %d after the filters (fsame/fadd/frem/fdup)\n\n",
		stats.Total, stats.AfterDup)
	for _, c := range kept {
		fmt.Print(c.String())
	}

	fmt.Println()
	fmt.Println("=== Auto-suggested rule (paper §6.3) ===")
	rule := diffcode.SuggestRule(kept[0])
	fmt.Println(rule.Formula)
	oldRes, err := diffcode.AnalyzeUsages(oldVersion, opts)
	if err != nil {
		log.Fatal(err)
	}
	newRes, err := diffcode.AnalyzeUsages(newVersion, opts)
	if err != nil {
		log.Fatal(err)
	}
	oldHit, _ := rule.Matches(oldRes, diffcode.RuleContext{})
	newHit, _ := rule.Matches(newRes, diffcode.RuleContext{})
	fmt.Printf("matches the vulnerable version: %t (want true)\n", oldHit)
	fmt.Printf("matches the fixed version:      %t (want false)\n", newHit)
}
