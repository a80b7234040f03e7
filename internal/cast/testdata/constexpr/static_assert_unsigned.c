#include <stdio.h>

/* -1U is UINT_MAX, so the assertion holds. */
_Static_assert(-1U > 0, "-1U is positive");

int main(void) {
	puts("ok");
	return 0;
}
