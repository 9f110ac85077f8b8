// Package fuzzseed holds seed inputs shared by the fuzz targets of more
// than one package. Only test files import it.
package fuzzseed

import "strings"

// Java is the seed corpus of the Java front end's fuzz targets (FuzzParse
// and FuzzTokenize): the Figure-2 running example (examples/quickstart),
// SNIPPETS.md-style crypto usage, and a spread of malformed, truncated,
// and adversarial inputs.
var Java = []string{
	// The paper's Figure 2 (old version).
	`class AESCipher {
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
}`,
	// The paper's Figure 2 (new version, CBC with IV).
	`class AESCipher {
    Cipher enc, dec;
    final String algorithm = "AES/CBC/PKCS5Padding";

    protected void setKeyAndIV(Secret key, String iv) {
        try {
            byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
            IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
        } catch (Exception e) {}
    }
}`,
	// SNIPPETS.md-style hard-coded key and PBE usage.
	`public class KeyHelper {
    private static final byte[] SALT = { 0x01, 0x02, 0x03, 0x04 };
    SecretKey derive(char[] pw) throws Exception {
        PBEKeySpec spec = new PBEKeySpec(pw, SALT, 1000, 256);
        SecretKeyFactory f = SecretKeyFactory.getInstance("PBKDF2WithHmacSHA1");
        return f.generateSecret(spec);
    }
    void fill() { new SecureRandom().nextBytes(SALT); }
}`,
	// Control flow, generics, nesting, lambdas.
	`package a.b.c;
import java.util.*;
public final class Outer<T extends Comparable<T>> {
    interface Cb { void run(); }
    enum Mode { ECB, CBC }
    static int count = 0;
    void m(List<T> xs) {
        for (T x : xs) { if (x == null) continue; count++; }
        switch (count) { case 0: break; default: count--; }
        Cb cb = () -> System.out.println("done");
        do { count <<= 1; } while (count < 10);
    }
    class Inner { int f = count; }
}`,
	// Valid-ish fragments and pathologies.
	``,
	`class`,
	`class A {`,
	`class A { void m( } }`,
	`interface I { int f(); `,
	`class A { String s = "unterminated; }`,
	`class A { char c = 'A'; float f = 1.5e-3f; long l = 0xFFL; }`,
	`class A { /* unterminated comment`,
	`@interface Anno { String value() default "x"; }`,
	`class A { void m() { label: while (true) { break label; } } }`,
	"class \x00\xff { }",
	`;;;`,
	`class A { void m() { new int[]{1,2,}[0]++; } }`,
	// Generated stress seeds: deep nesting and long token runs.
	"class D { void m() { " + strings.Repeat("if (x) { ", 60) + strings.Repeat("}", 60) + " } }",
	"class E { int x = " + strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200) + "; }",
}
