#include <stdio.h>

/* ++c is c += 1 (C11 6.5.3.1:2), so its value is the converted sum. */
int main(void) {
	char c = 127;
	short s = 32767;
	printf("%d %d\n", ++c, ++s);
	printf("%d %d\n", --c, --s);
	return 0;
}
