#include <stdio.h>

/* The case constant is UINT_MAX / 2, which equals the tag where
   unsigned int has 32 bits. */
int main(void) {
	switch (2147483647u) {
	case -1U / 2:
		puts("case");
		return 0;
	default:
		puts("default");
		return 1;
	}
}
