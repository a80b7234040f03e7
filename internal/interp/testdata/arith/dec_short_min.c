#include <stdio.h>

/* s-- subtracts 1 in int and converts -32769 back to short. */
int main(void) {
	short s = -32768;
	s--;
	printf("%d\n", s);
	return 0;
}
