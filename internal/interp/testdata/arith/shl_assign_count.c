#include <stdio.h>

/* i <<= n shifts the promoted i, an int, whatever n's type (C11 6.5.7:3):
   a count of 40 is out of range. */
int main(void) {
	int i = 1;
	long n = 40;
	i <<= n;
	printf("%d\n", i);
	return 0;
}
