#include <stdio.h>

/* -1 < 0U compares in unsigned int: -1 converts to UINT_MAX. */
enum { F = (-1 < 0U) };
static int b[(-1 < 0U) + 1];

int main(void) {
	printf("%d %zu\n", F, sizeof b / sizeof b[0]);
	return 0;
}
