// Checker: CryptoChecker on a deliberately vulnerable application.
//
// A small "password vault" app misuses the Java Crypto API in six distinct
// ways. We run the 13 elicited rules over it, print the findings with
// their allocation sites, apply the fixes the mined data suggests, and
// show that the fixed version comes back clean (modulo the provider rule,
// which we fix too).
//
// Run with: go run ./examples/checker
package main

import (
	"fmt"
	"log"

	diffcode "repro"
)

const vulnerable = `
class PasswordVault {
    private Cipher box;
    private SecretKeySpec master;

    void unlock(String password) throws Exception {
        byte[] salt = {1, 2, 3, 4, 5, 6, 7, 8};
        PBEKeySpec spec = new PBEKeySpec(password.toCharArray(), salt, 100, 256);
        byte[] keyBytes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
        master = new SecretKeySpec(keyBytes, "AES");
        box = Cipher.getInstance("AES");
        box.init(Cipher.ENCRYPT_MODE, master);
        MessageDigest md = MessageDigest.getInstance("SHA-1");
        md.update(keyBytes);
        SecureRandom token = new SecureRandom();
        token.setSeed(42);
    }
}
`

const fixed = `
class PasswordVault {
    private Cipher box;
    private SecretKeySpec master;

    void unlock(String password, byte[] derivedKey) throws Exception {
        SecureRandom rng = SecureRandom.getInstance("SHA1PRNG");
        byte[] salt = new byte[8];
        rng.nextBytes(salt);
        PBEKeySpec spec = new PBEKeySpec(password.toCharArray(), salt, 10000, 256);
        master = new SecretKeySpec(derivedKey, "AES");
        byte[] iv = new byte[16];
        rng.nextBytes(iv);
        IvParameterSpec ivSpec = new IvParameterSpec(iv);
        box = Cipher.getInstance("AES/GCM/NoPadding", "BC");
        box.init(Cipher.ENCRYPT_MODE, master, ivSpec);
        MessageDigest md = MessageDigest.getInstance("SHA-256");
        md.update(derivedKey);
    }
}
`

func main() {
	ctx := diffcode.RuleContext{}
	opts := diffcode.Options{}

	fmt.Println("=== CryptoChecker on the vulnerable vault ===")
	violations, err := diffcode.CheckSource(vulnerable, ctx, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range violations {
		fmt.Printf("%-4s %s\n", v.Rule.ID, v.Rule.Description)
		fmt.Printf("     %s\n", v.Rule.Formula)
		for _, o := range v.Objs {
			fmt.Printf("     at %s\n", o.SiteLabel())
		}
	}
	fmt.Printf("→ %d rules matched\n\n", len(violations))

	fmt.Println("=== After applying the mined fixes ===")
	after, err := diffcode.CheckSource(fixed, ctx, opts)
	if err != nil {
		log.Fatal(err)
	}
	if len(after) == 0 {
		fmt.Println("no rule violations — the vault now follows all 13 rules")
	}
	for _, v := range after {
		fmt.Printf("%-4s still matches: %s\n", v.Rule.ID, v.Rule.Description)
	}

	fmt.Println()
	fmt.Println("=== What changed, as DiffCode sees it ===")
	for _, class := range diffcode.TargetClasses() {
		for _, c := range diffcode.DiffSources(vulnerable, fixed, class, opts) {
			if c.IsSame() {
				continue
			}
			fmt.Printf("%s:\n%s", class, c.String())
		}
	}
}
