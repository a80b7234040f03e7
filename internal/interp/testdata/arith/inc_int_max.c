#include <limits.h>
#include <stdio.h>

/* int does not promote: i++ overflows (C11 6.5:5). */
int main(void) {
	int i = INT_MAX;
	i++;
	printf("%d\n", i);
	return 0;
}
