#include <stdio.h>
int main(void) {
	int s = 0;
	goto in;
	switch (s) {
	case 0:
		s += 1000;
	in:
		s += 100;
	case 1:
		s += 10;
		break;
	case 2:
		s += 1;
	}
	printf("%d\n", s);
	return 0;
}
