#include <stdio.h>

/* c++ adds 1 in int, the promoted type, and converts 128 back to signed
   char: no overflow (C11 6.5.2.4:2, 6.3.1.3:3). */
int main(void) {
	signed char c = 127;
	c++;
	printf("%d\n", c);
	return 0;
}
